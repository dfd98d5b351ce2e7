// Package porting encodes and analyzes the paper's porting studies:
// Table 2 (automated porting of 24 libraries via externally-built
// archives against musl and newlib, with and without the glibc
// compatibility layer) and Figure 6 (the developer survey of porting
// effort over the project's first four quarters).
package porting

// LibPort is one Table 2 row.
type LibPort struct {
	Name string
	// MuslMB / NewlibMB are image sizes in MB.
	MuslMB, NewlibMB float64
	// MuslStd / NewlibStd: whether the port builds without the glibc
	// compatibility layer.
	MuslStd, NewlibStd bool
	// MuslCompat / NewlibCompat: with the compat layer.
	MuslCompat, NewlibCompat bool
	// GlueLoC is the hand-written glue code needed.
	GlueLoC int
}

// Table2 is the paper's porting matrix, transcribed.
func Table2() []LibPort {
	return []LibPort{
		{"lib-axtls", 0.364, 0.436, false, false, true, true, 0},
		{"lib-bzip2", 0.324, 0.388, false, false, true, true, 0},
		{"lib-c-ares", 0.328, 0.424, false, false, true, true, 0},
		{"lib-duktape", 0.756, 0.856, true, false, true, true, 7},
		{"lib-farmhash", 0.256, 0.340, true, true, true, true, 0},
		{"lib-fft2d", 0.364, 0.440, true, false, true, true, 0},
		{"lib-helloworld", 0.248, 0.332, true, true, true, true, 0},
		{"lib-httpreply", 0.252, 0.372, true, false, true, true, 0},
		{"lib-libucontext", 0.248, 0.332, true, false, true, true, 0},
		{"lib-libunwind", 0.248, 0.328, true, true, true, true, 0},
		{"lib-lighttpd", 0.676, 0.788, false, false, true, true, 6},
		{"lib-memcached", 0.536, 0.660, false, false, true, true, 6},
		{"lib-micropython", 0.648, 0.708, true, false, true, true, 7},
		{"lib-nginx", 0.704, 0.792, false, false, true, true, 5},
		{"lib-open62541", 0.252, 0.336, true, true, true, true, 13},
		{"lib-openssl", 2.9, 3.0, false, false, true, true, 0},
		{"lib-pcre", 0.356, 0.432, true, false, true, true, 0},
		{"lib-python3", 3.1, 3.2, false, false, true, true, 26},
		{"lib-redis-client", 0.660, 0.764, false, false, true, true, 29},
		{"lib-redis-server", 1.3, 1.4, false, false, true, true, 32},
		{"lib-ruby", 5.6, 5.7, false, false, true, true, 37},
		{"lib-sqlite", 1.4, 1.4, false, false, true, true, 5},
		{"lib-zlib", 0.368, 0.432, false, false, true, true, 0},
		{"lib-zydis", 0.688, 0.756, true, false, true, true, 0},
	}
}

// Table2Stats summarizes the porting matrix (the §4 claims).
type Table2Stats struct {
	Libs           int
	MuslStdOK      int // build with plain musl
	NewlibStdOK    int
	MuslCompatOK   int // build with the glibc compat layer
	NewlibCompatOK int
	ZeroGlue       int // ports needing no hand-written code
	TotalGlueLoC   int
	MaxGlueLoC     int
	MeanMuslMB     float64
}

// AnalyzeTable2 computes the summary.
func AnalyzeTable2(rows []LibPort) Table2Stats {
	var s Table2Stats
	s.Libs = len(rows)
	var sizeSum float64
	for _, r := range rows {
		if r.MuslStd {
			s.MuslStdOK++
		}
		if r.NewlibStd {
			s.NewlibStdOK++
		}
		if r.MuslCompat {
			s.MuslCompatOK++
		}
		if r.NewlibCompat {
			s.NewlibCompatOK++
		}
		if r.GlueLoC == 0 {
			s.ZeroGlue++
		}
		s.TotalGlueLoC += r.GlueLoC
		if r.GlueLoC > s.MaxGlueLoC {
			s.MaxGlueLoC = r.GlueLoC
		}
		sizeSum += r.MuslMB
	}
	if s.Libs > 0 {
		s.MeanMuslMB = sizeSum / float64(s.Libs)
	}
	return s
}

// SurveyQuarter is one Figure 6 time bucket of the developer survey
// (working days spent porting, by category).
type SurveyQuarter struct {
	Quarter         string
	Libraries       float64
	LibraryDeps     float64
	OSPrimitives    float64
	BuildPrimitives float64
}

// Total sums all categories.
func (q SurveyQuarter) Total() float64 {
	return q.Libraries + q.LibraryDeps + q.OSPrimitives + q.BuildPrimitives
}

// Fig6Survey is the survey dataset (Figure 6): total porting effort per
// quarter, decreasing as the common code base matured.
func Fig6Survey() []SurveyQuarter {
	return []SurveyQuarter{
		{Quarter: "Q2-2019", Libraries: 132, LibraryDeps: 60, OSPrimitives: 31, BuildPrimitives: 16},
		{Quarter: "Q3-2019", Libraries: 88, LibraryDeps: 22, OSPrimitives: 21, BuildPrimitives: 18},
		{Quarter: "Q4-2019", Libraries: 43, LibraryDeps: 1, OSPrimitives: 46, BuildPrimitives: 0},
		{Quarter: "Q1-2020", Libraries: 24, LibraryDeps: 0, OSPrimitives: 4, BuildPrimitives: 0},
	}
}

// SurveyTrend verifies the Figure 6 claim quantitatively: effort on
// dependencies and missing primitives trends to zero.
type SurveyTrend struct {
	FirstTotal, LastTotal float64
	// OverheadShare is (deps+primitives)/total per quarter: the share of
	// effort NOT spent on the library itself.
	OverheadShare []float64
}

// AnalyzeSurvey computes the trend.
func AnalyzeSurvey(qs []SurveyQuarter) SurveyTrend {
	var t SurveyTrend
	if len(qs) == 0 {
		return t
	}
	t.FirstTotal = qs[0].Total()
	t.LastTotal = qs[len(qs)-1].Total()
	for _, q := range qs {
		total := q.Total()
		if total == 0 {
			t.OverheadShare = append(t.OverheadShare, 0)
			continue
		}
		t.OverheadShare = append(t.OverheadShare,
			(q.LibraryDeps+q.OSPrimitives+q.BuildPrimitives)/total)
	}
	return t
}

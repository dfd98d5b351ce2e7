package porting

import "testing"

func TestTable2Claims(t *testing.T) {
	rows := Table2()
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	s := AnalyzeTable2(rows)
	// §4's headline: with the compat layer, everything builds.
	if s.MuslCompatOK != 24 || s.NewlibCompatOK != 24 {
		t.Fatalf("compat: musl %d, newlib %d; want 24/24", s.MuslCompatOK, s.NewlibCompatOK)
	}
	// Without it, newlib is much worse than musl ("this approach is not
	// effective with newlib but it is with musl").
	if s.NewlibStdOK >= s.MuslStdOK {
		t.Fatalf("newlib std %d >= musl std %d", s.NewlibStdOK, s.MuslStdOK)
	}
	// Most ports need zero glue; the worst is tens of lines (ruby, 37).
	if s.ZeroGlue < 12 {
		t.Errorf("zero-glue ports = %d", s.ZeroGlue)
	}
	if s.MaxGlueLoC != 37 {
		t.Errorf("max glue = %d, want 37 (ruby)", s.MaxGlueLoC)
	}
}

func TestNewlibImagesLarger(t *testing.T) {
	for _, r := range Table2() {
		if r.NewlibMB < r.MuslMB {
			t.Errorf("%s: newlib %.3fMB < musl %.3fMB", r.Name, r.NewlibMB, r.MuslMB)
		}
	}
}

func TestFig6Trend(t *testing.T) {
	qs := Fig6Survey()
	if len(qs) != 4 {
		t.Fatalf("quarters = %d", len(qs))
	}
	tr := AnalyzeSurvey(qs)
	// Total effort declines steeply as the code base matures.
	if tr.LastTotal >= tr.FirstTotal/4 {
		t.Errorf("effort %0.f -> %0.f; want a steep decline", tr.FirstTotal, tr.LastTotal)
	}
	// Dependency + primitive overhead share ends near zero.
	last := tr.OverheadShare[len(tr.OverheadShare)-1]
	if last > 0.25 {
		t.Errorf("final overhead share = %.2f", last)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].Total() > qs[i-1].Total() && i != 2 {
			// Q4-2019 has an OS-primitives bump in the paper's data; any
			// other increase is a transcription error.
			t.Errorf("quarter %s total increased", qs[i].Quarter)
		}
	}
}

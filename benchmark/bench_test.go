package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if err := loadDeclaration("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	calibInit()
	calibWalk = 1000
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestDeclaration checks BENCHMARK.json against the limits the contract
// sets and the workloads against the ones this package runs. TestSmoke
// checks the metric names against what is emitted.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	decl := declared
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range decl.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	wellFormed := func(metrics []declMetric, bounded bool) {
		t.Helper()
		for _, m := range metrics {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	wellFormed(decl.EndToEnd, true)
	wellFormed(decl.PerLayer, false)
	var setup, widest declMetric
	for _, m := range decl.EndToEnd {
		if m.Name == mSetupS {
			setup = m
		}
		if m.Bound > widest.Bound {
			widest = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound < widest.Bound {
		t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v (widest %+v)", setup, widest)
	}
}

// TestSmoke runs every workload at a hundredth of its size: two runs
// agree on every simulated metric, the traced repetition reproduces
// them (traced checks that itself, and that the layers' cycles add up
// to the server's on every closed loop), and the names emitted are
// exactly the names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	const scale = 0.01
	dir := t.TempDir()
	emitted := map[string]bool{} // per-layer names, over all workloads
	for _, w := range workloads {
		a, err := measure(w, 1, scale, 0, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, 1, scale, 0, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != 0 {
			t.Errorf("%s: %d verification failures", w.name, a.Failed)
		}
		if len(a.E2E) != len(declared.EndToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, %d are declared", w.name, len(a.E2E), len(declared.EndToEnd))
		}
		for _, d := range declared.EndToEnd {
			v, ok := a.E2E[d.Name]
			if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v): every end-to-end metric must be measured and non-zero", w.name, d.Name, v, ok)
			}
			if !hostMetricNames[d.Name] && b.E2E[d.Name] != v {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", w.name, d.Name, v, b.E2E[d.Name])
			}
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: request stream differs between two runs of one seed", w.name)
		}
		if err := traced(w, a, scale, dir); err != nil {
			t.Fatal(err)
		}
		// traced has checked that every name emitted is declared.
		for name, v := range a.Layer {
			emitted[name] = true
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		if !w.open && w.name != "sql-mixed" && a.Layer["apps.sim_cycles_per_req"] == 0 {
			t.Errorf("%s: the traced repetition attributed no cycles to the application", w.name)
		}
		// The trace file must load as Chrome trace-event JSON.
		raw, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name, Cat, Ph string
				Ts, Dur       float64
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file holds no spans", w.name)
		}
		for _, e := range doc.TraceEvents {
			if e.Ph != "X" || e.Name == "" || e.Cat == "" || e.Dur < 0 {
				t.Fatalf("%s: malformed trace event %+v", w.name, e)
			}
		}
		// A second seed offers different load.
		c, err := measure(w, 2, scale, 0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.Digest == a.Digest {
			t.Errorf("%s: seeds 1 and 2 generated the same request stream", w.name)
		}
	}
	for _, d := range declared.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s is declared and no workload emits it", d.Name)
		}
	}
}

// TestAnchors ties the benchmark to the calibrated baseline: at full
// size the two paper reproductions among the workloads land on the
// figures BENCH_baseline.json gates (Fig 13: 208.2K req/s; Table 4:
// 6.228M req/s).
func TestAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, a := range []struct {
		workload string
		rps, tol float64
	}{
		{"http-wrk", 208.2e3, 0.002},
		{"udp-raw", 6.228e6, 0.001},
	} {
		res, err := measure(findWorkload(a.workload), 1, 1, 0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.E2E[mRPS]; math.Abs(got-a.rps)/a.rps > a.tol {
			t.Errorf("%s: sim_rps = %.0f, the baseline's figure is %.0f", a.workload, got, a.rps)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := declMetric{Better: "lower", Bound: 0.10}
	higher := declMetric{Better: "higher", Bound: 0.01}
	for _, c := range []struct {
		m                 declMetric
		base, next, noise float64
		want              string
	}{
		{lower, 100, 105, 0.02, "within"},
		{lower, 100, 115, 0.02, "regressed"},
		{lower, 100, 80, 0.02, "improved"},
		{lower, 100, 115, 0.20, "unresolved"},
		{lower, 100, 70, 0.20, "improved"},
		{higher, 100, 98, 0, "regressed"},
		{higher, 100, 100, 0, "within"},
		{higher, 100, 103, 0, "improved"},
	} {
		if got := verdictOf(c.m, c.base, c.next, c.noise); got != c.want {
			t.Errorf("verdictOf(%+v, %v, %v, noise %v) = %s, want %s", c.m, c.base, c.next, c.noise, got, c.want)
		}
	}
}

// TestCompareMixedStreams: a workload offered the same request stream in
// both files is held to bound 0 on simulated metrics; one whose stream
// differs keeps the declared bound, whatever was judged before it.
func TestCompareMixedStreams(t *testing.T) {
	result := func(workload, digest string, rps float64) *runResult {
		r := &runResult{Workload: workload, Seed: 1, Digest: digest, E2E: map[string]float64{}, Spread: map[string]float64{}}
		for _, m := range declared.EndToEnd {
			r.E2E[m.Name] = 100
		}
		r.E2E[mRPS] = rps
		return r
	}
	write := func(name string, rs ...*runResult) string {
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, m := range declared.EndToEnd {
		if m.Name == mRPS {
			bound = m.Bound
		}
	}
	// sim_rps is lower by half its bound on both workloads: within, but
	// a regression where the stream is identical.
	same, other := workloads[0].name, workloads[1].name
	base := write("base.json", result(same, "aa", 1000), result(other, "bb", 1000))
	next := write("new.json", result(same, "aa", 1000*(1-bound/2)), result(other, "cc", 1000*(1-bound/2)))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a simulated metric that moved on an identical stream must regress:\n%s", out.String())
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[0] == mRPS {
			verdicts[f[1]] = f[5] + " " + f[6]
		}
	}
	if want := fmt.Sprintf("%.1f%% within", 100*bound); verdicts[same] != "0.0% regressed" || verdicts[other] != want {
		t.Errorf("sim_rps verdicts = %v, want %s regressed at bound 0 and %s %s:\n%s", verdicts, same, other, want, out.String())
	}
}

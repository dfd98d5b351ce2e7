package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// worse is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: better).
func worse(m declMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// repeatCheck compares two runs of the same code in one process:
// simulated metrics must agree exactly, host metrics within their
// bounds.
func repeatCheck(w io.Writer, first, second []*runResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== repeat check: %d workloads x %d end-to-end metrics\n", len(first), len(declared.EndToEnd))
	for i, a := range first {
		b := second[i]
		for _, m := range declared.EndToEnd {
			va, vb := a.E2E[m.Name], b.E2E[m.Name]
			switch {
			case !hostMetricNames[m.Name]:
				if va != vb {
					ok = false
					fmt.Fprintf(w, "  FAIL %-14s %-22s simulated metric differs: %v vs %v\n", a.Workload, m.Name, va, vb)
				}
			case math.Abs(worse(m, va, vb)) > m.Bound:
				ok = false
				fmt.Fprintf(w, "  FAIL %-14s %-22s %.6g vs %.6g: %+.1f%%, bound %.0f%%\n",
					a.Workload, m.Name, va, vb, 100*worse(m, va, vb), 100*m.Bound)
			default:
				fmt.Fprintf(w, "  ok   %-14s %-22s %.6g vs %.6g: %+.1f%%, bound %.0f%%\n",
					a.Workload, m.Name, va, vb, 100*worse(m, va, vb), 100*m.Bound)
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "repeat check passed: simulated metrics identical, host metrics within bounds")
	}
	return ok
}

// compareFiles prints, for every end-to-end metric and workload, the
// base and new value, their ratio, the bound and a verdict, one row per
// workload. It reports whether anything regressed.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	load := func(path string) (map[string]*runResult, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []*runResult
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[string]*runResult{}
		for _, r := range rs {
			out[r.Workload] = r
		}
		return out, nil
	}
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	next, err := load(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-22s %-14s %14s %14s %8s %7s  %s\n", "metric", "workload", "base", "new", "new/base", "bound", "verdict")
	for _, m := range declared.EndToEnd {
		for _, wl := range declared.Workloads {
			a, b := base[wl.Name], next[wl.Name]
			if a == nil || b == nil {
				continue
			}
			va, vb := a.E2E[m.Name], b.E2E[m.Name]
			// The declared bounds leave room for runs on different seeds.
			// Two runs that were offered the same request stream need
			// none of it for a simulated metric: any difference is the
			// program's.
			bm := m
			if !hostMetricNames[m.Name] && a.Seed == b.Seed && a.Digest == b.Digest {
				bm.Bound = 0
			}
			v := verdictOf(bm, va, vb, math.Max(a.Spread[m.Name], b.Spread[m.Name]))
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-22s %-14s %14.6g %14.6g %8.4f %6.1f%%  %s\n", m.Name, wl.Name, va, vb, vb/va, 100*bm.Bound, v)
		}
	}
	return regressed, nil
}

// verdictOf judges one pairing. noise is the larger of the two runs'
// own repetition spread for the metric (zero for simulated metrics): a
// difference inside it is not a finding either way, and when the noise
// itself exceeds the bound the pairing cannot be resolved at all.
func verdictOf(m declMetric, base, next, noise float64) string {
	d := worse(m, base, next)
	switch {
	case d > m.Bound && d > noise:
		return "regressed"
	case -d > m.Bound && -d > noise:
		return "improved"
	case noise > m.Bound:
		return "unresolved"
	default:
		return "within"
	}
}

package syscalls

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSupportedCount(t *testing.T) {
	// §4.1: "we have implementations for 146 syscalls".
	if got := len(SupportedNumbers); got < 140 || got > 152 {
		t.Fatalf("supported = %d, want ~146", got)
	}
	seen := map[int]bool{}
	for _, nr := range SupportedNumbers {
		if nr < 0 || nr > MaxNr {
			t.Fatalf("syscall %d out of map range", nr)
		}
		if seen[nr] {
			t.Fatalf("duplicate %d", nr)
		}
		seen[nr] = true
	}
	for _, must := range []int{0, 1, 2, 3, 41, 44, 45, 228, 257} {
		if !seen[must] {
			t.Errorf("core syscall %d (%s) missing from supported set", must, Name(must))
		}
	}
}

func TestThirtyApps(t *testing.T) {
	apps := Top30Apps()
	if len(apps) != 30 {
		t.Fatalf("apps = %d, want 30", len(apps))
	}
	for _, a := range apps {
		if len(a.Required) < 50 {
			t.Errorf("%s requires only %d syscalls; server apps need more", a.Name, len(a.Required))
		}
		for i := 1; i < len(a.Required); i++ {
			if a.Required[i] <= a.Required[i-1] {
				t.Fatalf("%s requirement set not sorted/unique", a.Name)
			}
		}
	}
}

func TestFig7Properties(t *testing.T) {
	a := Analyze(Top30Apps(), SupportedNumbers)
	rows := a.Fig7()
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's first take-away: every app is mostly green.
		if r.Base < 80 {
			t.Errorf("%s base support = %.1f%%, want mostly-supported", r.App, r.Base)
		}
		// Monotone progression.
		if !(r.Base <= r.Top5 && r.Top5 <= r.Top10 && r.Top10 <= r.Complete) {
			t.Errorf("%s progression not monotone: %+v", r.App, r)
		}
		if r.Complete != 100 {
			t.Errorf("%s complete = %.1f", r.App, r.Complete)
		}
	}
}

func TestTopMissingOrdering(t *testing.T) {
	a := Analyze(Top30Apps(), SupportedNumbers)
	top := a.TopMissing(10)
	if len(top) != 10 {
		t.Fatalf("top = %v", top)
	}
	for i := 1; i < len(top); i++ {
		if a.UsageCount[top[i]] > a.UsageCount[top[i-1]] {
			t.Fatalf("not demand-ordered: %v", top)
		}
	}
	for _, nr := range top {
		if a.Supported[nr] {
			t.Fatalf("supported syscall %d in missing list", nr)
		}
	}
	// The top missing syscall must be one every app needs (the shared
	// POSIX tail: statfs, epoll-family, etc.).
	if a.UsageCount[top[0]] != len(a.Apps) {
		t.Errorf("top missing %d (%s) needed by %d/%d apps; expected a universal gap",
			top[0], Name(top[0]), a.UsageCount[top[0]], len(a.Apps))
	}
}

func TestSupportPercentWithExtras(t *testing.T) {
	a := Analyze(Top30Apps(), SupportedNumbers)
	app := a.Apps[0]
	base := a.supportPercent(app, nil)
	all := map[int]bool{}
	for _, nr := range app.Required {
		all[nr] = true
	}
	if got := a.supportPercent(app, all); got != 100 {
		t.Fatalf("full extras = %.1f", got)
	}
	if base >= 100 {
		t.Fatalf("base = %.1f; dataset should have gaps", base)
	}
}

func TestHeatmapRendering(t *testing.T) {
	a := Analyze(Top30Apps(), SupportedNumbers)
	hm := a.Heatmap(32)
	if !strings.Contains(hm, "#") {
		t.Error("no hot cells in heatmap")
	}
	if !strings.Contains(hm, "!") {
		t.Error("no needed-but-unsupported cells")
	}
	lines := strings.Count(hm, "\n")
	if lines < (MaxNr+1)/32 {
		t.Errorf("heatmap lines = %d", lines)
	}
}

// TestAnalyzeQuick property: support percent is always within [0,100]
// and adding extras never decreases it.
func TestAnalyzeQuick(t *testing.T) {
	a := Analyze(Top30Apps(), SupportedNumbers)
	f := func(extraRaw []uint16, appIdx uint8) bool {
		app := a.Apps[int(appIdx)%len(a.Apps)]
		extra := map[int]bool{}
		for _, e := range extraRaw {
			extra[int(e)%(MaxNr+1)] = true
		}
		base := a.supportPercent(app, nil)
		with := a.supportPercent(app, extra)
		return base >= 0 && with <= 100 && with >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

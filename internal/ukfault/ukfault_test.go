package ukfault

import (
	"testing"
	"time"
)

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.empty() {
		t.Fatal("nil plan must be empty")
	}
	if nilPlan.ClusterFaults() {
		t.Fatal("nil plan must not arm cluster faults")
	}
	p := New(7)
	if !p.empty() {
		t.Fatal("fresh plan must be empty")
	}
	p.CrashHost(1, time.Second)
	if p.empty() || !p.ClusterFaults() {
		t.Fatal("crash plan must be non-empty with cluster faults")
	}
	if New(1).WithVMHazard(1e-4).ClusterFaults() {
		t.Fatal("pure VM hazard must not arm cluster faults")
	}
}

func TestValidate(t *testing.T) {
	if err := New(1).CrashHost(3, time.Second).Validate(8); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []*Plan{
		New(1).CrashHost(8, time.Second),                             // host out of range
		New(1).CrashHost(2, time.Second).CrashHost(2, 2*time.Second), // double crash
		New(1).DegradeLink(0, 0, time.Second, 0, 1.5),                // loss > 1
		New(1).DegradeLink(-2, 0, time.Second, 0, 0.1),               // host < -1
		New(1).WithVMHazard(2),                                       // hazard > 1
	}
	for i, p := range cases {
		if err := p.Validate(8); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
}

func TestCrashOf(t *testing.T) {
	p := New(1).CrashHostRejoin(2, time.Second, 3*time.Second)
	c, ok := p.CrashOf(2)
	if !ok || c.At != time.Second || c.Rejoin != 3*time.Second {
		t.Fatalf("CrashOf(2) = %+v, %v", c, ok)
	}
	if _, ok := p.CrashOf(1); ok {
		t.Fatal("CrashOf(1) must miss")
	}
}

func TestDrawDeterministicAndShardInvariant(t *testing.T) {
	v := VMFaults{Hazard: 0.5}
	c1, f1 := v.Draw(42, time.Millisecond, 256, 7, 0)
	c2, f2 := v.Draw(42, time.Millisecond, 256, 7, 0)
	if c1 != c2 || f1 != f2 {
		t.Fatal("Draw must be deterministic")
	}
	// A different attempt is a fresh coin.
	if c3, f3 := v.Draw(42, time.Millisecond, 256, 7, 1); c1 == c3 && f1 == f3 {
		t.Log("attempt 1 drew identically — allowed but unexpected")
	}
	if crash, _ := (VMFaults{}).Draw(42, time.Millisecond, 256, 7, 0); crash {
		t.Fatal("zero hazard must never crash")
	}
}

func TestDrawRate(t *testing.T) {
	// The empirical crash rate over many identities must track Hazard.
	v := VMFaults{Hazard: 0.1}
	crashes := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		crash, frac := v.Draw(9, time.Duration(i)*time.Microsecond, 256, uint64(i%1024), 0)
		if crash {
			crashes++
			if frac < 0.05 || frac > 0.95 {
				t.Fatalf("crash fraction %v outside [0.05, 0.95]", frac)
			}
		}
	}
	got := float64(crashes) / n
	if got < 0.09 || got > 0.11 {
		t.Fatalf("empirical crash rate %v, want ~0.1", got)
	}
}

// empty reports whether the plan injects nothing — the serving stack
// treats an empty plan exactly like no plan at all, byte for byte.
func (p *Plan) empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Links) == 0 &&
		len(p.Slows) == 0 && p.VM.Hazard == 0)
}

package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewCPU(0)
	if c.Hz != DefaultHz {
		t.Fatalf("Hz = %d", c.Hz)
	}
	c.Advance(3_600_000)
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms", got)
	}
	c.AdvanceDuration(time.Millisecond)
	if got := c.Cycles(); got != 7_200_000 {
		t.Fatalf("cycles = %d", got)
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatal("Reset did not zero")
	}
}

// TestCycleDurationRoundTrip property: ToCycles(Duration(n)) ~= n.
func TestCycleDurationRoundTrip(t *testing.T) {
	c := NewCPU(0)
	f := func(raw uint32) bool {
		n := uint64(raw)
		back := c.ToCycles(c.Duration(n))
		diff := int64(back) - int64(n)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 4 // rounding slack at 3.6 cycles/ns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatch(t *testing.T) {
	cpu := NewCPU(0)
	cpu.Advance(100)
	w := StartWatch(cpu)
	cpu.Advance(250)
	if w.Cycles() != 250 {
		t.Fatalf("watch = %d", w.Cycles())
	}
}

func TestCostsTable1(t *testing.T) {
	// Every ID has a row: an ID added without one has per 0 and no source.
	for id := CostID(0); id < numCosts; id++ {
		if c := costs[id]; c.per < 1 || c.source == "" || c.unit == "" {
			t.Errorf("cost %d has no row: %+v", id, c)
		}
		if got := Cycles(id, 0); got != 0 {
			t.Errorf("Cycles(%d, 0) = %d, want 0", id, got)
		}
	}
	for _, tc := range []struct {
		id   CostID
		n    uint64
		want uint64
	}{
		{CostFunctionCall, 1, 4}, // Table 1 exactly
		{CostUnikraftSyscall, 1, 84},
		{CostLinuxSyscall, 1, 222},
		{CostLinuxSyscallNoMitig, 1, 154},
		{CostCopy, 15, 0}, // 16 bytes/cycle, rounded down
		{CostCopy, 16, 1},
		{CostCopy, 17, 1},
		{Cost9PByte, 9, 10}, // a fractional rate floors over the whole count
	} {
		if got := Cycles(tc.id, tc.n); got != tc.want {
			t.Errorf("Cycles(%d, %d) = %d, want %d", tc.id, tc.n, got, tc.want)
		}
	}
}

func TestMachineCharges(t *testing.T) {
	m := NewMachine()
	m.Charge(10)
	m.Pay(CostCopy, 160)
	m.Pay(CostVMExit, 2)
	m.ChargeDuration(time.Microsecond)
	if got, want := m.CPU.Cycles(), uint64(10+10+2*4320+3600); got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := true
	a.Seed(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

// TestRandRanges property: Intn and Float64 stay in range.
func TestRandRanges(t *testing.T) {
	r := NewRand(42)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		fl := r.Float64()
		return v >= 0 && v < bound && fl >= 0 && fl < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

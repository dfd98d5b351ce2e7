package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := newCPU(0)
	if c.Hz != DefaultHz {
		t.Fatalf("Hz = %d", c.Hz)
	}
	c.advance(3_600_000)
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms", got)
	}
	// A duration is spent as Spend(l, ToCycles(d)): what the removed
	// CPU.AdvanceDuration(d) added, nothing for d <= 0, else d at Hz
	// rounded down.
	advanceDuration := func(hz uint64, d time.Duration) uint64 {
		if d <= 0 {
			return 0
		}
		return uint64(float64(d) * float64(hz) / float64(time.Second))
	}
	for _, tc := range []struct {
		d    time.Duration
		want uint64
	}{
		{0, 0},
		{-time.Millisecond, 0},
		{time.Nanosecond, 3}, // 3.6 cycles
		{time.Millisecond, 3_600_000},
		{1_234_567 * time.Nanosecond, 4_444_441}, // 4,444,441.2 cycles
	} {
		m := NewMachine()
		m.Spend(LayerPlatform, m.CPU.ToCycles(tc.d))
		if got := m.CPU.Cycles(); got != tc.want || got != advanceDuration(m.CPU.Hz, tc.d) {
			t.Errorf("Spend(ToCycles(%v)) = %d cycles, want %d", tc.d, got, tc.want)
		}
	}
}

// TestCycleDurationRoundTrip property: ToCycles(Duration(n)) ~= n.
func TestCycleDurationRoundTrip(t *testing.T) {
	c := newCPU(0)
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
	cpu := newCPU(0)
	cpu.advance(100)
	w := StartWatch(cpu)
	cpu.advance(250)
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
		if l := costs[id].layer; l == LayerIdle || l >= LayerUnattributed {
			t.Errorf("cost %d is on layer %v, which no row pays", id, l)
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
	m.Spend(LayerBoot, m.CPU.ToCycles(time.Microsecond))
	if got, want := m.CPU.Cycles(), uint64(10+10+2*4320+3600); got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
	var want [NumLayers]uint64
	want[LayerUnattributed], want[LayerCopy], want[LayerPlatform], want[LayerBoot] = 10, 10, 2*4320, 3600
	if got := m.Ledger(); got != want {
		t.Fatalf("ledger = %v, want %v", got, want)
	}
}

// TestLedgerSums property: whatever mix of Pay, Spend and Charge a
// machine sees, its ledger sums to its clock, each row's cycles landing
// on the row's layer, Spend's on the layer named and Charge's on
// unattributed.
func TestLedgerSums(t *testing.T) {
	f := func(ops []uint32) bool {
		m := NewMachine()
		var want [NumLayers]uint64
		for _, op := range ops {
			n := uint64(op >> 16)
			switch op % 3 {
			case 0:
				id := CostID(op >> 2 % uint32(numCosts))
				m.Pay(id, n)
				want[costs[id].layer] += Cycles(id, n)
			case 1:
				l := Layer(op >> 2 % uint32(NumLayers))
				m.Spend(l, n)
				want[l] += n
			default:
				m.Charge(n)
				want[LayerUnattributed] += n
			}
		}
		var sum uint64
		for _, c := range m.Ledger() {
			sum += c
		}
		return m.Ledger() == want && sum == m.CPU.Cycles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPayAllocs: paying a row keeps no map and makes no allocation.
func TestPayAllocs(t *testing.T) {
	m := NewMachine()
	if n := testing.AllocsPerRun(100, func() { m.Pay(CostCopy, 4096) }); n != 0 {
		t.Fatalf("Pay allocates %v times per call", n)
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
	a.reseed(7)
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

// newCPU returns a CPU running at the given clock rate. A rate of 0
// selects DefaultHz.
func newCPU(hz uint64) *CPU {
	if hz == 0 {
		hz = DefaultHz
	}
	return &CPU{Hz: hz}
}

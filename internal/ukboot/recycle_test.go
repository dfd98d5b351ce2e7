package ukboot

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"unikraft/internal/allocators/alloctest"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukplat"
)

var fiveAllocators = []string{"bootalloc", "buddy", "mimalloc", "tinyalloc", "tlsf"}

// recycleCfg is pool-bursty's guest shape: 8 MB of memory, a 6 MB heap.
func recycleCfg(alloc string) Config {
	return Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: 1600 << 10,
		PTMode:     PTStatic,
		Allocator:  alloc,
		NICs:       1,
		Libs:       []string{"lwip", "vfscore", "ramfs", "uksched"},
	}
}

// dirtyHard writes 0xFF over most of the heap through every entry point
// that reaches arena bytes: fresh blocks of many sizes, frees that
// thread free lists through old payloads, an aligned block, a growing
// Realloc, and a large block written only at its far end.
func dirtyHard(t *testing.T, vm *VM) {
	t.Helper()
	h := vm.Heap
	fill := func(p ukalloc.Ptr, n int) {
		b := ukalloc.Bytes(h, p, n)
		for i := range b {
			b[i] = 0xFF
		}
	}
	var ptrs []ukalloc.Ptr
	for i := 0; i < 300; i++ {
		n := 16 + (i*977)%9000
		p, err := h.Malloc(n)
		if err != nil {
			break
		}
		fill(p, h.UsableSize(p))
		ptrs = append(ptrs, p)
	}
	for i := 0; i < len(ptrs); i += 3 {
		if err := h.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
		ptrs[i] = 0
	}
	if p, err := h.Memalign(4096, 10000); err == nil {
		fill(p, h.UsableSize(p))
	}
	for _, p := range ptrs {
		if p.IsNil() {
			continue
		}
		np, err := h.Realloc(p, 20000)
		if err != nil {
			t.Fatal(err)
		}
		fill(np, h.UsableSize(np))
		break
	}
	if p, err := h.Malloc(1 << 20); err == nil {
		fill(p+1<<20-64, 64)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// observed is everything a guest or a report can see of a new instance.
type observed struct {
	arena  []byte
	report Report
	stats  ukalloc.Stats
	dirty  int
}

func observe(vm *VM) observed {
	mem := vm.Heap.Arena().Bytes()
	return observed{
		arena:  append([]byte(nil), mem...),
		report: vm.Report,
		stats:  vm.Heap.Stats(),
		dirty:  dirtyBytes(vm.Heap.Arena()),
	}
}

func (o observed) diff(t *testing.T, what string, ref observed) {
	t.Helper()
	if !bytes.Equal(o.arena, ref.arena) {
		t.Errorf("%s: arena differs from a fresh context's", what)
	}
	if !reflect.DeepEqual(o.report, ref.report) {
		t.Errorf("%s: report %+v, fresh %+v", what, o.report, ref.report)
	}
	if o.stats != ref.stats {
		t.Errorf("%s: stats %+v, fresh %+v", what, o.stats, ref.stats)
	}
	if o.dirty != ref.dirty {
		t.Errorf("%s: %d dirty bytes, fresh %d", what, o.dirty, ref.dirty)
	}
}

// TestRecycledBootIdentity: an instance booted or forked over a recycled
// arena is byte-for-byte the instance a fresh context would have made,
// whatever the previous owner did to the heap.
func TestRecycledBootIdentity(t *testing.T) {
	newCtx := func(alloc string) *Context {
		ctx, err := NewContext(recycleCfg(alloc))
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	for _, alloc := range fiveAllocators {
		t.Run(alloc+"/boot", func(t *testing.T) {
			fresh, err := newCtx(alloc).Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			ref := observe(fresh)

			ctx := newCtx(alloc)
			first, err := ctx.Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			arena := first.Heap.Arena()
			dirtyHard(t, first)
			if err := alloctest.CheckDirtySet(arena); err != nil {
				t.Fatal(err)
			}
			// dirtyBytes reads marked pages only; a scan of every page
			// must count the same.
			scanned := 0
			for mem := arena.Bytes(); len(mem) > 0; mem = mem[min(PageSize, len(mem)):] {
				if !allZero(mem[:min(PageSize, len(mem))]) {
					scanned += PageSize
				}
			}
			if got := dirtyBytes(arena); got != scanned {
				t.Errorf("dirtyBytes = %d, a full scan counts %d", got, scanned)
			}
			first.Close()
			if !allZero(arena.Bytes()) {
				t.Fatal("closed VM left non-zero bytes in its arena")
			}
			second, err := ctx.Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			if second.Heap.Arena() != arena {
				t.Error("second boot did not take the recycled arena")
			}
			if made, _ := ctx.Arenas(); made != 1 {
				t.Errorf("context made %d arenas for two sequential boots, want 1", made)
			}
			observe(second).diff(t, "recycled boot", ref)
		})
		t.Run(alloc+"/fork", func(t *testing.T) {
			freshCtx := newCtx(alloc)
			freshSnap, err := freshCtx.Snapshot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := freshCtx.Fork(sim.NewMachine(), freshSnap)
			if err != nil {
				t.Fatal(err)
			}
			ref := observe(fresh)

			ctx := newCtx(alloc)
			snap, err := ctx.Snapshot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			first, err := ctx.Fork(sim.NewMachine(), snap)
			if err != nil {
				t.Fatal(err)
			}
			dirtyHard(t, first)
			first.Close()
			second, err := ctx.Fork(sim.NewMachine(), snap)
			if err != nil {
				t.Fatal(err)
			}
			observe(second).diff(t, "recycled fork", ref)
			if made, _ := ctx.Arenas(); made != 2 {
				t.Errorf("context made %d arenas for a template and two sequential forks, want 2", made)
			}

			// A template captured over a recycled arena measures the same
			// allocator footprint, so its clones charge the same faults.
			dirtyHard(t, second)
			second.Close()
			snap.Close()
			again, err := ctx.Snapshot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			if again.heapMetaBytes != freshSnap.heapMetaBytes {
				t.Errorf("recaptured heapMetaBytes = %d, fresh %d", again.heapMetaBytes, freshSnap.heapMetaBytes)
			}
			if !reflect.DeepEqual(again.Template().Report, freshSnap.Template().Report) {
				t.Error("recaptured template's report differs from a fresh one")
			}
		})
	}
}

// TestCloseTwiceReleasesOnce: a second Close must not put the arena on
// the free list again — two later VMs would share one heap.
func TestCloseTwiceReleasesOnce(t *testing.T) {
	ctx, err := NewContext(recycleCfg("tlsf"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	vm.Close()
	vm.Close()
	snap.Close()
	snap.Template().Close()
	snap.Close()
	if made, free := ctx.Arenas(); made != 2 || free != 2 {
		t.Fatalf("after closing a template and a clone twice each: %d made, %d free, want 2 and 2", made, free)
	}
	if vm.Heap != nil || vm.Allocs.Default() != nil || len(vm.Allocs.All()) != 0 {
		t.Error("closed VM still has a heap")
	}
	a, err := ctx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ctx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Heap.Arena() == b.Heap.Arena() {
		t.Fatal("two live VMs share one arena")
	}
	if made, free := ctx.Arenas(); made != 2 || free != 0 {
		t.Errorf("two boots after two releases: %d made, %d free, want 2 and 0", made, free)
	}
}

// TestResetKeepsDirtyMarks: Reset builds a new backend over the same
// arena; what the old one wrote must still be scrubbed on Close.
func TestResetKeepsDirtyMarks(t *testing.T) {
	for _, alloc := range fiveAllocators {
		ctx, err := NewContext(recycleCfg(alloc))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := ctx.Boot(sim.NewMachine())
		if err != nil {
			t.Fatal(err)
		}
		arena := vm.Heap.Arena()
		dirtyHard(t, vm)
		if err := vm.Reset(); err != nil {
			t.Fatal(err)
		}
		if vm.Heap.Arena() != arena {
			t.Fatalf("%s: Reset moved the heap to another arena", alloc)
		}
		// One small write, far from most of what the first backend's
		// blocks covered.
		p, err := vm.Heap.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ukalloc.Bytes(vm.Heap, p, 64)[63] = 0xEE
		if err := alloctest.CheckDirtySet(arena); err != nil {
			t.Fatalf("%s: after Reset: %v", alloc, err)
		}
		vm.Close()
		if !allZero(arena.Bytes()) {
			t.Errorf("%s: arena returned to the free list with stale bytes", alloc)
		}
	}
}

// TestParallelBootClose boots, forks and closes from ParallelFor's
// goroutines on one Context (run under -race): the free list hands an
// arena to one VM at a time and ends up holding every arena made, all
// zero.
func TestParallelBootClose(t *testing.T) {
	ctx, err := NewContext(recycleCfg("tlsf"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	const n = 96
	errs := make([]error, n)
	sim.ParallelFor(n, func(i int) {
		var vm *VM
		if i%2 == 0 {
			vm, errs[i] = ctx.Boot(sim.NewMachine())
		} else {
			vm, errs[i] = ctx.Fork(sim.NewMachine(), snap)
		}
		if errs[i] != nil {
			return
		}
		p, err := vm.Heap.Malloc(4096 + i*100)
		if err != nil {
			errs[i] = err
			return
		}
		b := ukalloc.Bytes(vm.Heap, p, 4096)
		for j := range b {
			b[j] = byte(i) | 1
		}
		// Nobody else may be writing this arena.
		runtime.Gosched()
		for j := range b {
			if b[j] != byte(i)|1 {
				t.Errorf("VM %d: heap byte changed under it", i)
				break
			}
		}
		vm.Close()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	snap.Close()
	made, free := ctx.Arenas()
	if made != free || made > 1+runtime.GOMAXPROCS(0) {
		t.Errorf("%d arenas made, %d free, at most %d VMs were ever live", made, free, 1+runtime.GOMAXPROCS(0))
	}
	for _, a := range ctx.free {
		if err := alloctest.CheckScrub(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootSteadyStateBytes gates what a boot or fork costs the host once
// its context has an arena to reuse: well under the heap it hands the
// guest, and fewer heap objects than when every boot made its arena
// (20 per fork of nginxCfg, one of them the arena). A boot builds no
// page table either — it shares its context's — so it costs a few small
// objects whatever the guest's memory size.
func TestBootSteadyStateBytes(t *testing.T) {
	perOp := func(fn func()) (bytesPerOp uint64, allocsPerOp float64) {
		fn() // warm: the context makes its arena here
		const rounds = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / rounds, testing.AllocsPerRun(rounds, fn)
	}
	const (
		bootBytes, bootObjs = 8 << 10, 8
		forkBytes, forkObjs = 256 << 10, 18
	)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"8MB", recycleCfg("tlsf")}, // pool-bursty's guest
		{"64MB", nginxCfg()},
	} {
		ctx, err := NewContext(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ctx.Snapshot(sim.NewMachine())
		if err != nil {
			t.Fatal(err)
		}
		boot := func() {
			vm, err := ctx.Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			vm.Close()
		}
		fork := func() {
			vm, err := ctx.Fork(sim.NewMachine(), snap)
			if err != nil {
				t.Fatal(err)
			}
			vm.Close()
		}
		b, objs := perOp(boot)
		if b >= bootBytes || objs > bootObjs {
			t.Errorf("%s boot+Close: %d B and %.0f objects per op, want < %d B and <= %d", tc.name, b, objs, bootBytes, bootObjs)
		}
		b, objs = perOp(fork)
		if b >= forkBytes || objs > forkObjs {
			t.Errorf("%s fork+Close: %d B and %.0f objects per op, want < %d B and <= %d", tc.name, b, objs, forkBytes, forkObjs)
		}
		snap.Close()
		if made, _ := ctx.Arenas(); made != 2 {
			t.Errorf("%s: %d arenas made for one template and one VM at a time, want 2", tc.name, made)
		}
	}
}

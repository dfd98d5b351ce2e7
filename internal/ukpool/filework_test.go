package ukpool

import (
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukplat"
	"unikraft/internal/vfscore"
)

// fileCtx builds a boot context with a small populated ramfs root and
// a deliberately tiny fd table budget per instance (set by the test
// via SetMaxFDs after boot).
func fileCtx(t *testing.T) *ukboot.Context {
	t.Helper()
	ctx, err := ukboot.NewContext(ukboot.Config{
		Platform:       ukplat.KVMFirecracker,
		MemBytes:       8 << 20,
		ImageBytes:     512 << 10,
		Allocator:      "tlsf",
		RootFS:         ukboot.RootRamfs,
		Files:          map[string][]byte{"/index.html": []byte("<html>pool</html>")},
		PageCachePages: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestRequestWorkRuns: the per-request hook fires once per request with
// monotone sequence numbers, charges the instance machine, and its work
// lands in the measured service time.
func TestRequestWorkRuns(t *testing.T) {
	ctx := fileCtx(t)
	calls := 0
	lastSeq := 0
	pool := newPool(func(id int, m *sim.Machine) (*ukboot.VM, error) { return ctx.Boot(instanceMachine(0, id, m)) }, nil,
		Config{MinWarm: 2, MaxInstances: 8, RequestWork: func(vm *ukboot.VM, seq int) {
			calls++
			if seq != calls {
				t.Fatalf("seq %d on call %d", seq, calls)
			}
			lastSeq = seq
			if vm.VFS == nil {
				t.Fatal("instance has no VFS")
			}
			fd, err := vm.VFS.Open("/index.html", vfscore.ORdOnly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.VFS.Sendfile(fd, 0, -1, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			vm.VFS.Close(fd)
		}})
	defer pool.Close()
	const n = 500
	rep, err := pool.Serve(NewPoisson(7, 50_000, n, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n || calls != n || lastSeq != n {
		t.Fatalf("requests=%d calls=%d lastSeq=%d, want %d", rep.Requests, calls, lastSeq, n)
	}
}

// TestFDTableUnderPoolLoad: thousands of pooled requests, each doing a
// real open/sendfile/close against an instance whose descriptor table
// holds only 4 slots, never exhaust the table — and a hook that leaks
// descriptors is caught by the same bound. This is the edge the
// serving path leans on: fd churn at production request counts with
// recycling in between.
func TestFDTableUnderPoolLoad(t *testing.T) {
	ctx := fileCtx(t)
	seen := map[*ukboot.VM]bool{}
	pool := newPool(func(id int, m *sim.Machine) (*ukboot.VM, error) {
		vm, err := ctx.Boot(instanceMachine(0, id, m))
		if err == nil {
			vm.VFS.SetMaxFDs(4)
		}
		return vm, err
	}, nil,
		Config{MinWarm: 2, MaxInstances: 2, NoAutoscale: true, RequestWork: func(vm *ukboot.VM, seq int) {
			seen[vm] = true
			fd, err := vm.VFS.Open("/index.html", vfscore.ORdOnly)
			if err != nil {
				t.Fatalf("request %d: open: %v (fd table exhausted: leak)", seq, err)
			}
			if _, err := vm.VFS.Sendfile(fd, 0, -1, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := vm.VFS.Close(fd); err != nil {
				t.Fatal(err)
			}
		}})
	defer pool.Close()
	// Two pinned instances and enough requests that the hot one passes
	// recycleEvery more than once.
	const n = 3 * recycleEvery
	rep, err := pool.Serve(NewBursty(3, 20_000, 120_000, 20*time.Millisecond, 0.5, n, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Fatalf("served %d requests", rep.Requests)
	}
	if rep.Resets < 2 {
		t.Errorf("%d resets — the test did not cover reset interleaving", rep.Resets)
	}
	for vm := range seen {
		if got := vm.VFS.OpenFDs(); got != 0 {
			t.Errorf("instance leaked %d descriptors", got)
		}
	}

	// The same load with a leaky hook must hit ErrTooManyFD within the
	// table bound — proving the bound actually bites under pool load.
	leaks := 0
	leaky := newPool(func(id int, m *sim.Machine) (*ukboot.VM, error) {
		vm, err := ctx.Boot(instanceMachine(0, id, m))
		if err == nil {
			vm.VFS.SetMaxFDs(4)
		}
		return vm, err
	}, nil,
		Config{MinWarm: 1, MaxInstances: 1, NoAutoscale: true, RequestWork: func(vm *ukboot.VM, seq int) {
			if _, err := vm.VFS.Open("/index.html", vfscore.ORdOnly); err == vfscore.ErrTooManyFD {
				leaks++
			}
		}})
	defer leaky.Close()
	if _, err := leaky.Serve(NewPoisson(9, 20_000, 32, 64)); err != nil {
		t.Fatal(err)
	}
	if leaks == 0 {
		t.Error("leaky hook never saw ErrTooManyFD — fd bound not enforced")
	}
}

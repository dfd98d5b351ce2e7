package unikraft_test

import (
	"strings"
	"testing"

	"unikraft"
	"unikraft/internal/vfscore"
)

var apiSite = map[string][]byte{
	"/index.html": []byte("<html>api</html>"),
	"/a/b.txt":    []byte("nested"),
}

// TestSpecRootFSOptions: the options compose, render in String, and
// WithFiles implies ramfs.
func TestSpecRootFSOptions(t *testing.T) {
	s := unikraft.NewSpec("nginx",
		unikraft.WithRootFS("shfs"),
		unikraft.WithFiles(apiSite))
	if s.RootFS != "shfs" || len(s.Files) != 2 {
		t.Fatalf("spec = %+v", s)
	}
	for _, want := range []string{"rootfs=shfs", "files=2"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	cached := s.With(unikraft.WithRootFS("ramfs"), unikraft.WithPageCache(128))
	if !strings.Contains(cached.String(), "pcache=128") {
		t.Errorf("String() = %q, missing pcache", cached)
	}

	// Implied ramfs: files without a RootFS validate and boot with a
	// VFS.
	rt := unikraft.NewRuntime()
	implied := unikraft.NewSpec("nginx", unikraft.WithFiles(apiSite))
	if err := rt.Validate(implied); err != nil {
		t.Fatalf("implied ramfs rejected: %v", err)
	}

	// With copies the file map: mutating the child never leaks into the
	// parent.
	child := s.With(unikraft.WithFile("/extra.txt", []byte("x")))
	if len(s.Files) != 2 || len(child.Files) != 3 {
		t.Errorf("WithFile mutated the parent: parent=%d child=%d", len(s.Files), len(child.Files))
	}
}

// TestSpecRootFSValidation: precise errors for unknown backends,
// negative caches, caches without a vfscore root, relative paths.
func TestSpecRootFSValidation(t *testing.T) {
	rt := unikraft.NewRuntime()
	cases := []struct {
		name string
		spec unikraft.Spec
		want string
	}{
		{"unknown backend", unikraft.NewSpec("nginx", unikraft.WithRootFS("ext4")), "unknown root filesystem"},
		{"negative cache", unikraft.NewSpec("nginx", unikraft.WithRootFS("ramfs"), unikraft.WithPageCache(-1)), "must not be negative"},
		{"cache without vfs root", unikraft.NewSpec("nginx", unikraft.WithRootFS("shfs"), unikraft.WithPageCache(64)), "vfscore-backed"},
		{"cache without any root", unikraft.NewSpec("nginx", unikraft.WithPageCache(64)), "vfscore-backed"},
		{"relative path", unikraft.NewSpec("nginx", unikraft.WithRootFS("ramfs"), unikraft.WithFile("rel.txt", nil)), "absolute"},
	}
	for _, tc := range cases {
		err := rt.Validate(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunWithRootFS: the whole SDK path — spec to booted instance with
// a live filesystem, for each backend, snapshot-forked included.
func TestRunWithRootFS(t *testing.T) {
	rt := unikraft.NewRuntime()
	defer rt.Close()
	for _, rootfs := range []string{"ramfs", "9pfs"} {
		spec := unikraft.NewSpec("nginx",
			unikraft.WithRootFS(rootfs),
			unikraft.WithFiles(apiSite),
			unikraft.WithPageCache(32))
		inst, err := rt.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", rootfs, err)
		}
		if inst.VM.VFS == nil {
			t.Fatalf("%s: no VFS on the booted VM", rootfs)
		}
		fd, err := inst.VM.VFS.Open("/a/b.txt", vfscore.ORdOnly)
		if err != nil {
			t.Fatalf("%s: open: %v", rootfs, err)
		}
		var got []byte
		if _, err := inst.VM.VFS.Sendfile(fd, 0, -1, func(p []byte) error {
			got = append(got, p...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if string(got) != "nested" {
			t.Errorf("%s: /a/b.txt = %q", rootfs, got)
		}
		inst.Close()
	}

	shfsInst, err := rt.Run(unikraft.NewSpec("nginx",
		unikraft.WithRootFS("shfs"), unikraft.WithFiles(apiSite)))
	if err != nil {
		t.Fatal(err)
	}
	defer shfsInst.Close()
	if shfsInst.VM.SHFS == nil || shfsInst.VM.SHFS.Count() != 2 {
		t.Fatalf("shfs boot: %+v", shfsInst.VM.SHFS)
	}

	// Snapshot-boot: the second Run forks, and the clone still owns a
	// working COW filesystem view.
	snapSpec := unikraft.NewSpec("nginx",
		unikraft.WithSnapshotBoot(),
		unikraft.WithFiles(apiSite), unikraft.WithPageCache(32))
	first, err := rt.Run(snapSpec)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	clone, err := rt.Run(snapSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if !clone.VM.Forked {
		t.Fatal("second SnapshotBoot run did not fork")
	}
	if clone.VM.VFS == nil {
		t.Fatal("forked clone has no VFS")
	}
	if _, err := clone.VM.VFS.StatPath("/index.html"); err != nil {
		t.Errorf("clone stat: %v", err)
	}
}

// TestPoolWithRequestWork: the SDK pool facade drives per-request VFS
// work on a file-serving spec.
func TestPoolWithRequestWork(t *testing.T) {
	rt := unikraft.NewRuntime()
	defer rt.Close()
	served := 0
	pool, err := rt.NewPool(
		unikraft.NewSpec("nginx", unikraft.WithVMM("firecracker"),
			unikraft.WithMemory(16<<20),
			unikraft.WithFiles(apiSite), unikraft.WithPageCache(32)),
		unikraft.WithPoolWarm(2), unikraft.WithPoolMaxInstances(8),
		unikraft.WithPoolRequestWork(func(vm *unikraft.VM, seq int) {
			served++
			fd, err := vm.VFS.Open("/index.html", vfscore.ORdOnly)
			if err != nil {
				t.Fatal(err)
			}
			vm.VFS.Sendfile(fd, 0, -1, func([]byte) error { return nil })
			vm.VFS.Close(fd)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rep, err := pool.Serve(unikraft.PoissonWorkload(5, 40_000, 300, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 300 || served != 300 {
		t.Fatalf("requests=%d hook calls=%d, want 300", rep.Requests, served)
	}
}

package ukboot

import (
	"bytes"
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/ukplat"
	"unikraft/internal/vfscore"
)

var testSite = map[string][]byte{
	"/index.html":    []byte("<html>hello</html>"),
	"/assets/a.css":  []byte("body{}"),
	"/assets/b.js":   bytes.Repeat([]byte("x"), 5000),
	"/data/blob.bin": bytes.Repeat([]byte("y"), 70000),
}

func rootfsConfig(rootFS string) Config {
	return Config{
		Platform:       ukplat.KVMQemu,
		MemBytes:       32 << 20,
		ImageBytes:     1 << 20,
		PTMode:         PTStatic,
		Allocator:      "tlsf",
		Libs:           []string{"vfscore", "ramfs"},
		RootFS:         rootFS,
		Files:          testSite,
		PageCachePages: 64,
	}
}

func readAll(t *testing.T, v *vfscore.VFS, path string) []byte {
	t.Helper()
	fd, err := v.Open(path, vfscore.ORdOnly)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer v.Close(fd)
	var out []byte
	if _, err := v.Sendfile(fd, 0, -1, func(p []byte) error {
		out = append(out, p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBootRootFSRamfs: a boot with RootFS "ramfs" owns a live VFS
// holding the populated site (nested directories included), and the
// population charged guest time.
func TestBootRootFSRamfs(t *testing.T) {
	bare, err := Boot(sim.NewMachine(), func() Config { c := rootfsConfig(""); c.Files = nil; return c }())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	vm, err := Boot(sim.NewMachine(), rootfsConfig(RootRamfs))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if vm.VFS == nil || vm.RootFS == nil || vm.SHFS != nil {
		t.Fatalf("ramfs boot: VFS=%v RootFS=%v SHFS=%v", vm.VFS, vm.RootFS, vm.SHFS)
	}
	for path, want := range testSite {
		if got := readAll(t, vm.VFS, path); !bytes.Equal(got, want) {
			t.Errorf("%s: got %d bytes, want %d", path, len(got), len(want))
		}
	}
	if vm.Report.Guest <= bare.Report.Guest {
		t.Errorf("populated boot (%v) not above bare boot (%v)", vm.Report.Guest, bare.Report.Guest)
	}
	found := false
	for _, s := range vm.Report.Steps {
		if s.Name == "rootfs:ramfs" {
			found = true
			if s.Duration <= 0 {
				t.Error("rootfs step charged nothing")
			}
		}
	}
	if !found {
		t.Errorf("no rootfs step in report: %v", vm.Report.Steps)
	}
}

// TestBootRootFSSHFS: the specialized volume is attached, sealed, and
// holds every object.
func TestBootRootFSSHFS(t *testing.T) {
	vm, err := Boot(sim.NewMachine(), func() Config {
		c := rootfsConfig(RootSHFS)
		c.PageCachePages = 0 // no vfscore underneath
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if vm.SHFS == nil || vm.VFS != nil {
		t.Fatalf("shfs boot: SHFS=%v VFS=%v", vm.SHFS, vm.VFS)
	}
	if !vm.SHFS.Sealed() {
		t.Error("boot-time volume not sealed")
	}
	for path, want := range testSite {
		h, err := vm.SHFS.Open(path)
		if err != nil {
			t.Fatalf("shfs open %s: %v", path, err)
		}
		if size, _ := vm.SHFS.Size(h); size != int64(len(want)) {
			t.Errorf("%s: size %d, want %d", path, size, len(want))
		}
	}
}

// TestBootRootFS9pfs: the 9p-mounted root serves the host export
// through the guest VFS.
func TestBootRootFS9pfs(t *testing.T) {
	vm, err := Boot(sim.NewMachine(), rootfsConfig(Root9pfs))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if vm.VFS == nil || vm.NinePHost == nil {
		t.Fatalf("9pfs boot: VFS=%v host=%v", vm.VFS, vm.NinePHost)
	}
	if got := readAll(t, vm.VFS, "/index.html"); !bytes.Equal(got, testSite["/index.html"]) {
		t.Errorf("/index.html through 9pfs = %q", got)
	}
}

// TestNinePfsPageCacheHits: the guest page cache must actually hit
// across separate opens of the same 9pfs path — which requires the 9p
// client's dentry cache to hand back stable node identities — and a
// write through one descriptor must invalidate what another cached.
func TestNinePfsPageCacheHits(t *testing.T) {
	vm, err := Boot(sim.NewMachine(), rootfsConfig(Root9pfs))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	for i := 0; i < 3; i++ {
		if got := readAll(t, vm.VFS, "/assets/b.js"); !bytes.Equal(got, testSite["/assets/b.js"]) {
			t.Fatalf("read %d mismatch", i)
		}
	}
	st := vm.VFS.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no page-cache hits across repeat 9pfs opens (stats %+v): node identity unstable?", st)
	}

	// Write via a fresh descriptor, then re-read through yet another:
	// the cache must serve the new bytes.
	fd, err := vm.VFS.Open("/assets/b.js", vfscore.OWrOnly|vfscore.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.VFS.Write(fd, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	vm.VFS.Close(fd)
	if got := readAll(t, vm.VFS, "/assets/b.js"); string(got) != "fresh" {
		t.Fatalf("stale page served after cross-descriptor write: %q", got)
	}
}

// TestNinePfsSharedExportCoherence: 9pfs clones share one mutable host
// tree; a remove+recreate by one clone must become visible to a
// sibling that had already looked the path up (dentry revalidation by
// qid), including through its page cache (the replacement is a new
// node, so no stale pages can hit).
func TestNinePfsSharedExportCoherence(t *testing.T) {
	ctx, err := NewContext(func() Config {
		c := rootfsConfig(Root9pfs)
		c.SnapshotBoot = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	a, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A reads (warming its dentry and page caches)...
	if got := readAll(t, a.VFS, "/index.html"); !bytes.Equal(got, testSite["/index.html"]) {
		t.Fatalf("clone A initial read = %q", got)
	}
	// ...B replaces the file on the shared export...
	if err := b.VFS.Unlink("/index.html"); err != nil {
		t.Fatal(err)
	}
	fd, err := b.VFS.Open("/index.html", vfscore.OCreate|vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.VFS.Write(fd, []byte("replaced-by-B")); err != nil {
		t.Fatal(err)
	}
	b.VFS.Close(fd)
	// ...and A must observe the replacement, not its cached object.
	if got := readAll(t, a.VFS, "/index.html"); string(got) != "replaced-by-B" {
		t.Fatalf("clone A sees stale shared-export content: %q", got)
	}
	// A removal alone is visible too.
	if err := b.VFS.Unlink("/index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.VFS.Open("/index.html", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Fatalf("clone A still opens a file B removed: %v", err)
	}
}

// TestBootRootFSValidation: unknown backends and files-without-rootfs
// fail fast at context construction.
func TestBootRootFSValidation(t *testing.T) {
	bad := rootfsConfig("ext4")
	if _, err := NewContext(bad); err == nil {
		t.Error("unknown rootfs accepted")
	}
	orphan := rootfsConfig("")
	if _, err := NewContext(orphan); err == nil {
		t.Error("Files without RootFS accepted")
	}
}

// TestRootFSStaged: with ParallelInit the rootfs mount runs in its own
// sequential stage after the constructor levels — never parallelized
// with the charges it depends on.
func TestRootFSStaged(t *testing.T) {
	cfg := rootfsConfig(RootRamfs)
	cfg.ParallelInit = true
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages := ctx.stageNames()
	rootStage := -1
	vfsStage := -1
	for i, names := range stages {
		for _, n := range names {
			switch n {
			case "rootfs:ramfs":
				rootStage = i
				if len(names) != 1 {
					t.Errorf("rootfs shares stage %v", names)
				}
			case "vfscore":
				vfsStage = i
			}
		}
	}
	if rootStage < 0 || vfsStage < 0 {
		t.Fatalf("stages missing rootfs/vfscore: %v", stages)
	}
	if rootStage <= vfsStage {
		t.Errorf("rootfs stage %d not after vfscore stage %d", rootStage, vfsStage)
	}
	vm, err := ctx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if vm.VFS == nil {
		t.Error("staged boot lost the VFS")
	}
}

// TestForkSharesRootFSCOW: forked clones read the template's site
// without duplicating it, writes in one clone are invisible to the
// template and siblings, and SHFS clones get sealed views charging
// their own machines.
func TestForkSharesRootFSCOW(t *testing.T) {
	ctx, err := NewContext(func() Config {
		c := rootfsConfig(RootRamfs)
		c.SnapshotBoot = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	a, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if a.VFS == nil || b.VFS == nil {
		t.Fatal("clones have no VFS")
	}
	want := testSite["/assets/b.js"]
	if got := readAll(t, a.VFS, "/assets/b.js"); !bytes.Equal(got, want) {
		t.Fatalf("clone A read %d bytes, want %d", len(got), len(want))
	}

	// Clone A rewrites the index; B and the template must not see it.
	fd, err := a.VFS.Open("/index.html", vfscore.OWrOnly|vfscore.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.VFS.Write(fd, []byte("A-PRIVATE")); err != nil {
		t.Fatal(err)
	}
	a.VFS.Close(fd)
	if got := readAll(t, a.VFS, "/index.html"); string(got) != "A-PRIVATE" {
		t.Fatalf("clone A sees %q after its own write", got)
	}
	if got := readAll(t, b.VFS, "/index.html"); !bytes.Equal(got, testSite["/index.html"]) {
		t.Fatalf("COW leak: clone B sees %q", got)
	}
	if got := readAll(t, snap.Template().VFS, "/index.html"); !bytes.Equal(got, testSite["/index.html"]) {
		t.Fatalf("COW leak: template sees %q", got)
	}
}

// TestForkSHFSView: shfs-rooted clones share the sealed volume through
// per-clone views billing their own machines.
func TestForkSHFSView(t *testing.T) {
	ctx, err := NewContext(func() Config {
		c := rootfsConfig(RootSHFS)
		c.PageCachePages = 0
		c.SnapshotBoot = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	m := sim.NewMachine()
	clone, err := ctx.Fork(m, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if clone.SHFS == nil {
		t.Fatal("clone has no SHFS view")
	}
	if err := clone.SHFS.Add("/new", nil); err == nil {
		t.Error("sealed view accepted Add")
	}
	before := m.CPU.Cycles()
	if _, err := clone.SHFS.Open("/index.html"); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Cycles() == before {
		t.Error("view open charged the template's machine, not the clone's")
	}
}

// TestResetClearsVFSFDs: recycling an instance drops its open
// descriptors.
func TestResetClearsVFSFDs(t *testing.T) {
	vm, err := Boot(sim.NewMachine(), rootfsConfig(RootRamfs))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if _, err := vm.VFS.Open("/index.html", vfscore.ORdOnly); err != nil {
		t.Fatal(err)
	}
	if vm.VFS.OpenFDs() == 0 {
		t.Fatal("no fds open before reset")
	}
	if err := vm.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := vm.VFS.OpenFDs(); got != 0 {
		t.Errorf("OpenFDs after Reset = %d", got)
	}
}

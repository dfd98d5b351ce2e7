package ninepfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"unikraft/internal/ramfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// hostFixture builds a host export with some files.
func hostFixture(t *testing.T) *ramfs.FS {
	t.Helper()
	host := ramfs.New()
	root := host.Root()
	f, err := root.Create("hello.txt", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello from the host"), 0); err != nil {
		t.Fatal(err)
	}
	dir, err := root.Create("sub", true)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := dir.Create("nested.dat", false)
	g.WriteAt(bytes.Repeat([]byte{0xAB}, 10000), 0)
	return host
}

func mountFixture(t *testing.T) (*FS, *Server, *sim.Machine) {
	t.Helper()
	host := hostFixture(t)
	srv := NewServer(host)
	m := sim.NewMachine()
	fs, err := Mount(NewTransport(m, srv))
	if err != nil {
		t.Fatal(err)
	}
	return fs, srv, m
}

func TestCodecRoundTrip(t *testing.T) {
	msg := newEnc(tWalk, 42).U32(7).U32(8).U16(2).Str("usr").Str("lib").Bytes()
	d, typ, tag, err := parseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if typ != tWalk || tag != 42 {
		t.Fatalf("typ=%d tag=%d", typ, tag)
	}
	if d.U32() != 7 || d.U32() != 8 || d.U16() != 2 {
		t.Fatal("fixed fields corrupted")
	}
	if d.Str() != "usr" || d.Str() != "lib" {
		t.Fatal("strings corrupted")
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", d.Remaining())
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestCodecQuick property: any (u32, u64, string, blob) tuple survives
// an encode/decode round trip.
func TestCodecQuick(t *testing.T) {
	f := func(a uint32, b uint64, s string, blob []byte) bool {
		if len(s) > 60000 || len(blob) > 60000 {
			return true
		}
		msg := newEnc(rRead, 1).U32(a).U64(b).Str(s).Blob(blob).Bytes()
		d, typ, _, err := parseHeader(msg)
		if err != nil || typ != rRead {
			return false
		}
		return d.U32() == a && d.U64() == b && d.Str() == s &&
			bytes.Equal(d.Blob(), blob) && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecTruncation(t *testing.T) {
	msg := newEnc(tRead, 1).U32(5).U64(0).U32(100).Bytes()
	for cut := 0; cut < len(msg); cut++ {
		if cut >= 7 {
			// Header parse succeeds only with a consistent size field;
			// a cut message must fail parseHeader.
			if _, _, _, err := parseHeader(msg[:cut]); err == nil {
				t.Fatalf("parseHeader accepted truncated message (%d bytes)", cut)
			}
			continue
		}
		if _, _, _, err := parseHeader(msg[:cut]); err == nil {
			t.Fatalf("short header accepted (%d bytes)", cut)
		}
	}
}

func TestMountAndRead(t *testing.T) {
	fs, _, _ := mountFixture(t)
	node, err := fs.Root().Lookup("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := node.ReadAt(buf, 0)
	if err != nil || string(buf[:n]) != "hello from the host" {
		t.Fatalf("ReadAt = %q, %v", buf[:n], err)
	}
	if node.Size() != 19 {
		t.Fatalf("Size = %d", node.Size())
	}
}

func TestWalkNested(t *testing.T) {
	fs, _, _ := mountFixture(t)
	sub, err := fs.Root().Lookup("sub")
	if err != nil {
		t.Fatal(err)
	}
	if !sub.IsDir() {
		t.Fatal("sub not a dir")
	}
	nested, err := sub.Lookup("nested.dat")
	if err != nil {
		t.Fatal(err)
	}
	if nested.Size() != 10000 {
		t.Fatalf("nested size = %d", nested.Size())
	}
	if _, err := fs.Root().Lookup("absent"); err != vfscore.ErrNotExist {
		t.Fatalf("lookup absent = %v", err)
	}
}

func TestWriteThrough9p(t *testing.T) {
	fs, _, _ := mountFixture(t)
	node, err := fs.Root().Create("new.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abc"), 1000)
	if n, err := node.WriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	// Re-walk from the root: content must be on the host.
	again, err := fs.Root().Lookup("new.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	n, err := again.ReadAt(buf, 0)
	if err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("read-back mismatch: %d bytes, %v", n, err)
	}
}

func TestLargeTransferSplitsAtMsize(t *testing.T) {
	fs, _, m := mountFixture(t)
	rpcs := 0
	// Count RPCs via a tracing transport wrapped around a fresh mount.
	host := hostFixture(t)
	srv := NewServer(host)
	tr := NewTransport(m, srv)
	tr.Trace = func(req, resp []byte) { rpcs++ }
	fs2, err := Mount(tr)
	if err != nil {
		t.Fatal(err)
	}
	_ = fs
	node, err := fs2.Root().Create("big", false)
	if err != nil {
		t.Fatal(err)
	}
	rpcs = 0
	payload := make([]byte, 200<<10) // 200KB > 64KB msize
	if _, err := node.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	minRPCs := (200 << 10) / int(defaultMsize)
	if rpcs <= minRPCs {
		t.Fatalf("write RPCs = %d, want > %d (msize splitting)", rpcs, minRPCs)
	}
	buf := make([]byte, 200<<10)
	rpcs = 0
	if n, err := node.ReadAt(buf, 0); err != nil || n != len(buf) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if rpcs <= minRPCs {
		t.Fatalf("read RPCs = %d, want > %d", rpcs, minRPCs)
	}
}

func TestReadDirOver9p(t *testing.T) {
	fs, _, _ := mountFixture(t)
	ents, err := fs.Root().ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("entries = %v", ents)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	if names[0] != "hello.txt" || names[1] != "sub" {
		t.Fatalf("names = %v", names)
	}
	if !ents[1].IsDir {
		t.Error("sub not flagged as dir")
	}
}

func TestRemoveOver9p(t *testing.T) {
	fs, _, _ := mountFixture(t)
	if err := fs.Root().Remove("hello.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Root().Lookup("hello.txt"); err != vfscore.ErrNotExist {
		t.Fatalf("lookup after remove = %v", err)
	}
	if err := fs.Root().Remove("hello.txt"); err != vfscore.ErrNotExist {
		t.Fatalf("double remove = %v", err)
	}
	// Removing a non-empty dir maps the server error.
	if err := fs.Root().Remove("sub"); err != vfscore.ErrNotEmpty {
		t.Fatalf("remove non-empty dir = %v", err)
	}
}

func TestVFSOver9pfs(t *testing.T) {
	// Full integration: the guest mounts 9pfs into vfscore and does
	// standard file I/O against the host export (the paper's §5.2
	// configuration).
	fs, _, m := mountFixture(t)
	v := vfscore.New(m)
	if err := v.Mount("/", fs); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/sub/nested.dat", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := v.Read(fd, buf)
	if err != nil || n != 4096 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	for _, b := range buf {
		if b != 0xAB {
			t.Fatal("content mismatch through vfs+9p")
		}
	}
	v.Close(fd)
}

func TestTransportChargesLatency(t *testing.T) {
	fs, _, m := mountFixture(t)
	node, _ := fs.Root().Lookup("sub")
	nested, _ := node.Lookup("nested.dat")
	// Warm the open so both measured reads are single Tread RPCs.
	warm := make([]byte, 16)
	nested.ReadAt(warm, 0)
	before := m.CPU.Cycles()
	buf := make([]byte, 4096)
	nested.ReadAt(buf, 0)
	cost := m.CPU.Cycles() - before
	// ~30k base + ~5k payload cycles: must be tens of microseconds
	// territory (Fig 20), not free and not milliseconds.
	if cost < 20_000 || cost > 200_000 {
		t.Errorf("4K 9p read = %d cycles; outside Fig 20 plausibility", cost)
	}
	// Larger reads must cost more (per-byte component).
	before = m.CPU.Cycles()
	big := make([]byte, 8192)
	nested.ReadAt(big, 0)
	if got := m.CPU.Cycles() - before; got <= cost {
		t.Errorf("8K read (%d) not costlier than 4K read (%d)", got, cost)
	}
}

func TestServerFidHygiene(t *testing.T) {
	host := hostFixture(t)
	srv := NewServer(host)
	m := sim.NewMachine()
	fs, err := Mount(NewTransport(m, srv))
	if err != nil {
		t.Fatal(err)
	}
	start := len(srv.fids)
	n, err := fs.Root().Lookup("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.fids) != start+1 {
		t.Fatalf("fids = %d, want %d", len(srv.fids), start+1)
	}
	if err := n.(*cnode).Clunk(); err != nil {
		t.Fatal(err)
	}
	if len(srv.fids) != start {
		t.Fatalf("fids after clunk = %d, want %d", len(srv.fids), start)
	}
}

func TestVersionNegotiation(t *testing.T) {
	srv := NewServer(ramfs.New())
	resp := srv.handle(newEnc(tVersion, 0xffff).U32(1 << 20).Str("9P2000").Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil || typ != rVersion {
		t.Fatal(err)
	}
	if got := d.U32(); got != defaultMsize {
		t.Fatalf("msize = %d, want clamped %d", got, defaultMsize)
	}
	// Unknown version string is answered with "unknown".
	resp = srv.handle(newEnc(tVersion, 1).U32(8192).Str("9P1999").Bytes())
	d, _, _, _ = parseHeader(resp)
	d.U32()
	if v := d.Str(); v != "unknown" {
		t.Fatalf("version = %q", v)
	}
}

func TestServerErrors(t *testing.T) {
	export := ramfs.New()
	srv := NewServer(export)
	// Unknown fid read.
	resp := srv.handle(newEnc(tRead, 9).U32(777).U64(0).U32(16).Bytes())
	if _, typ, _, _ := parseHeader(resp); typ != rError {
		t.Fatalf("read unknown fid: type = %d, want Rerror", typ)
	}
	// Unsupported type.
	resp = srv.handle(newEnc(200, 9).Bytes())
	if _, typ, _, _ := parseHeader(resp); typ != rError {
		t.Fatalf("unknown type: %d, want Rerror", typ)
	}
	// Garbage framing.
	resp = srv.handle([]byte{1, 2, 3})
	if _, typ, _, _ := parseHeader(resp); typ != rError {
		t.Fatalf("garbage: %d, want Rerror", typ)
	}
	// More names than one Twalk may carry (its Rwalk could pass msize),
	// every one of them there to be walked.
	srv.handle(newEnc(tAttach, 9).U32(1).U32(noFid).Str("guest").Str("/").Bytes())
	walk := newEnc(tWalk, 9).U32(1).U32(2).U16(maxWalkElems + 1)
	for i, dir := 0, export.Root(); i <= maxWalkElems; i++ {
		dir, _ = dir.Create("d", true)
		walk.Str("d")
	}
	if _, typ, _, _ := parseHeader(srv.handle(walk.Bytes())); typ != rError {
		t.Fatalf("17-name walk: %d, want Rerror", typ)
	}
}

// Remaining reports undecoded bytes (tests).
func (d *dec) Remaining() int { return len(d.buf) - d.off }

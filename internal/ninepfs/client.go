package ninepfs

import (
	"errors"
	"fmt"
	"strings"

	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// Transport carries 9P messages between guest client and host server,
// charging the virtio-9p round-trip cost to the guest machine. Fig 20's
// latency series derive from two cost rows: a fixed per-RPC cost
// (request/response descriptors, host service) plus a per-byte payload
// cost (shared-ring copies).
type Transport struct {
	machine *sim.Machine
	server  *Server
	// RPCCost is paid per RPC, ByteCost per request and response byte.
	RPCCost, ByteCost sim.CostID
	// Trace, if non-nil, observes (request, response) pairs.
	Trace func(req, resp []byte)
}

// NewTransport connects a guest machine to a host server over virtio-9p.
func NewTransport(m *sim.Machine, srv *Server) *Transport {
	return &Transport{machine: m, server: srv, RPCCost: sim.Cost9PRPC, ByteCost: sim.Cost9PByte}
}

// rpc executes one request/response exchange.
func (t *Transport) rpc(req []byte) []byte {
	resp := t.server.handle(req)
	t.machine.Pay(t.RPCCost, 1)
	t.machine.Pay(t.ByteCost, uint64(len(req)+len(resp)))
	if t.Trace != nil {
		t.Trace(req, resp)
	}
	return resp
}

// Client errors.
var (
	ErrProtocol = errors.New("ninepfs: protocol error")
)

// FS is the guest-side 9pfs client, a vfscore.FS whose nodes proxy
// operations to the host server over the transport.
type FS struct {
	t       *Transport
	msize   uint32
	nextFid uint32
	nextTag uint16
	root    *cnode
}

// Mount performs the version/attach handshake and returns the mounted
// client filesystem.
func Mount(t *Transport) (*FS, error) {
	fs := &FS{t: t, nextFid: 1}
	resp := t.rpc(newEnc(tVersion, 0xffff).U32(defaultMsize).Str("9P2000").Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil || typ != rVersion {
		return nil, fmt.Errorf("ninepfs: version: %w", errOf(d, typ, err))
	}
	fs.msize = d.U32()
	rootFid := fs.allocFid()
	resp = t.rpc(newEnc(tAttach, fs.tag()).U32(rootFid).U32(noFid).Str("guest").Str("/").Bytes())
	d, typ, _, err = parseHeader(resp)
	if err != nil || typ != rAttach {
		return nil, fmt.Errorf("ninepfs: attach: %w", errOf(d, typ, err))
	}
	fs.root = &cnode{fs: fs, fid: rootFid, qid: d.qid()}
	return fs, nil
}

func errOf(d *dec, typ byte, err error) error {
	if err != nil {
		return err
	}
	if typ == rError && d != nil {
		return errors.New(d.Str())
	}
	return ErrProtocol
}

func (fs *FS) allocFid() uint32 {
	fs.nextFid++
	return fs.nextFid
}

func (fs *FS) tag() uint16 {
	fs.nextTag++
	return fs.nextTag
}

// FSName implements vfscore.FS.
func (fs *FS) FSName() string { return "9pfs" }

// Root implements vfscore.FS.
func (fs *FS) Root() vfscore.Node { return fs.root }

// LookupCost implements vfscore.FS.
func (fs *FS) LookupCost() uint64 { return sim.Cycles(sim.Cost9PLookup, 1) }

// cnode is a client-side node proxy holding a server fid.
type cnode struct {
	fs   *FS
	fid  uint32
	qid  qid
	open bool
	size int64 // cached from last stat/write
	// children is the dentry cache: one stable cnode per name, like the
	// kernel dcache. Lookups still walk the server every time (shared
	// exports stay coherent for remove/replace) but revalidate into the
	// cached node on a qid match — stable Node identity is what lets
	// the VFS page cache hit, and invalidate, across separate opens of
	// one path, and bounds fid growth (revalidated walks clunk their
	// extra fid).
	children map[string]*cnode
}

// IsDir implements vfscore.Node.
func (n *cnode) IsDir() bool { return n.qid.Type&qtDir != 0 }

// Size implements vfscore.Node (one Tstat RPC).
func (n *cnode) Size() int64 {
	resp := n.fs.t.rpc(newEnc(tStat, n.fs.tag()).U32(n.fid).Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil || typ != rStat {
		return n.size
	}
	_ = d.qid()
	n.size = int64(d.U64())
	return n.size
}

// Lookup implements vfscore.Node via Twalk. Every lookup walks the
// server (so removals and replacements by other clients of the shared
// export are observed, as before the dentry cache existed), but a walk
// that lands on the same object — same qid path — revalidates the
// cached cnode and returns it, clunking the redundant fid. Stable node
// identity is what lets the VFS page cache hit, and invalidate, across
// separate opens of one path; same-object content writes by *other*
// clients remain cached until eviction, the cache=loose semantics real
// 9p clients ship.
func (n *cnode) Lookup(name string) (vfscore.Node, error) {
	newfid := n.fs.allocFid()
	resp := n.fs.t.rpc(newEnc(tWalk, n.fs.tag()).
		U32(n.fid).U32(newfid).U16(1).Str(name).Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil {
		return nil, err
	}
	if typ == rError {
		msg := d.Str()
		if strings.Contains(msg, "no such") {
			n.evictChild(name) // removed behind our back
			return nil, vfscore.ErrNotExist
		}
		return nil, errors.New(msg)
	}
	if typ != rWalk {
		return nil, ErrProtocol
	}
	if d.U16() != 1 {
		n.evictChild(name)
		return nil, vfscore.ErrNotExist
	}
	q := d.qid()
	if child, ok := n.children[name]; ok && child.qid.Path == q.Path {
		// Same object: the cached node is current — release the walk's
		// extra fid and keep the stable identity.
		(&cnode{fs: n.fs, fid: newfid}).Clunk()
		return child, nil
	}
	n.evictChild(name) // replaced: different object behind the name now
	child := &cnode{fs: n.fs, fid: newfid, qid: q}
	if n.children == nil {
		n.children = map[string]*cnode{}
	}
	n.children[name] = child
	return child, nil
}

// evictChild drops a dentry-cache entry whose name no longer resolves
// to the cached object, clunking its fid so server-side fid state stays
// bounded under remove/recreate churn. A descriptor still holding the
// evicted node errors on further I/O — the stale-handle semantics of a
// remotely replaced file on a shared export.
func (n *cnode) evictChild(name string) {
	if child, ok := n.children[name]; ok {
		child.Clunk()
		delete(n.children, name)
	}
}

// ensureOpen opens the fid for I/O once.
func (n *cnode) ensureOpen(mode byte) error {
	if n.open {
		return nil
	}
	resp := n.fs.t.rpc(newEnc(tOpen, n.fs.tag()).U32(n.fid).U8(mode).Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil {
		return err
	}
	if typ != rOpen {
		return errOf(d, typ, nil)
	}
	n.open = true
	return nil
}

// Create implements vfscore.Node via Tcreate on a walked copy of this
// directory's fid (Tcreate mutates the fid it is given).
func (n *cnode) Create(name string, dir bool) (vfscore.Node, error) {
	// Clone our fid so the directory fid survives.
	cfid := n.fs.allocFid()
	resp := n.fs.t.rpc(newEnc(tWalk, n.fs.tag()).U32(n.fid).U32(cfid).U16(0).Bytes())
	if _, typ, _, err := parseHeader(resp); err != nil || typ != rWalk {
		return nil, ErrProtocol
	}
	var perm uint32
	if dir {
		perm |= 0x80000000 // DMDIR
	}
	resp = n.fs.t.rpc(newEnc(tCreate, n.fs.tag()).U32(cfid).Str(name).U32(perm).U8(oRdWr).Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil {
		return nil, err
	}
	if typ == rError {
		msg := d.Str()
		if strings.Contains(msg, "exists") {
			return nil, vfscore.ErrExist
		}
		return nil, errors.New(msg)
	}
	if typ != rCreate {
		return nil, ErrProtocol
	}
	child := &cnode{fs: n.fs, fid: cfid, qid: d.qid(), open: true}
	if n.children == nil {
		n.children = map[string]*cnode{}
	}
	n.children[name] = child
	return child, nil
}

// Remove implements vfscore.Node: the extended Tremove carries the
// child name (see server.go).
func (n *cnode) Remove(name string) error {
	resp := n.fs.t.rpc(newEnc(tRemove, n.fs.tag()).U32(n.fid).Str(name).Bytes())
	d, typ, _, err := parseHeader(resp)
	if err != nil {
		return err
	}
	if typ == rError {
		msg := d.Str()
		switch {
		case strings.Contains(msg, "no such"):
			return vfscore.ErrNotExist
		case strings.Contains(msg, "not empty"):
			return vfscore.ErrNotEmpty
		}
		return errors.New(msg)
	}
	if typ != rRemove {
		return ErrProtocol
	}
	// Clunk the cached child's fid too: the server removes the object
	// via the parent fid, so the child's own fid would otherwise stay
	// registered forever.
	n.evictChild(name)
	return nil
}

// ReadDir implements vfscore.Node by paging Tread records.
func (n *cnode) ReadDir() ([]vfscore.DirEnt, error) {
	if !n.IsDir() {
		return nil, vfscore.ErrNotDir
	}
	if err := n.ensureOpen(oRead); err != nil {
		return nil, err
	}
	var out []vfscore.DirEnt
	off := uint64(0)
	for {
		resp := n.fs.t.rpc(newEnc(tRead, n.fs.tag()).
			U32(n.fid).U64(off).U32(n.fs.msize - 24).Bytes())
		d, typ, _, err := parseHeader(resp)
		if err != nil || typ != rRead {
			return nil, errOf(d, typ, err)
		}
		payload := d.Blob()
		if len(payload) == 0 {
			return out, nil
		}
		rd := &dec{buf: payload, off: 0}
		count := 0
		for rd.off < len(payload) {
			q := rd.qid()
			name := rd.Str()
			if rd.Err() != nil {
				return nil, ErrProtocol
			}
			out = append(out, vfscore.DirEnt{Name: name, IsDir: q.Type&qtDir != 0})
			count++
		}
		off += uint64(count)
	}
}

// ReadAt implements vfscore.Node, splitting reads at msize.
func (n *cnode) ReadAt(p []byte, off int64) (int, error) {
	if err := n.ensureOpen(oRdWr); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		chunk := uint32(len(p) - total)
		if max := n.fs.msize - 24; chunk > max {
			chunk = max
		}
		resp := n.fs.t.rpc(newEnc(tRead, n.fs.tag()).
			U32(n.fid).U64(uint64(off) + uint64(total)).U32(chunk).Bytes())
		d, typ, _, err := parseHeader(resp)
		if err != nil || typ != rRead {
			return total, errOf(d, typ, err)
		}
		data := d.Blob()
		copy(p[total:], data)
		total += len(data)
		if len(data) == 0 {
			break // EOF
		}
	}
	return total, nil
}

// WriteAt implements vfscore.Node, splitting writes at msize.
func (n *cnode) WriteAt(p []byte, off int64) (int, error) {
	if err := n.ensureOpen(oRdWr); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if max := int(n.fs.msize - 24); chunk > max {
			chunk = max
		}
		resp := n.fs.t.rpc(newEnc(tWrite, n.fs.tag()).
			U32(n.fid).U64(uint64(off) + uint64(total)).Blob(p[total : total+chunk]).Bytes())
		d, typ, _, err := parseHeader(resp)
		if err != nil || typ != rWrite {
			return total, errOf(d, typ, err)
		}
		nw := int(d.U32())
		total += nw
		if nw < chunk {
			return total, vfscore.ErrNoSpace
		}
	}
	if end := off + int64(total); end > n.size {
		n.size = end
	}
	return total, nil
}

// Truncate implements vfscore.Node via re-open with oTrunc.
func (n *cnode) Truncate(size int64) error {
	if size != 0 {
		return vfscore.ErrInvalid // only full truncation is supported remotely
	}
	n.open = false
	if err := n.ensureOpen(oRdWr | oTrunc); err != nil {
		return err
	}
	n.size = 0
	return nil
}

// Clunk releases the node's fid on the server (descriptor hygiene for
// long-lived mounts; vfscore has no node-release hook, so callers that
// care invoke it explicitly).
func (n *cnode) Clunk() error {
	resp := n.fs.t.rpc(newEnc(tClunk, n.fs.tag()).U32(n.fid).Bytes())
	_, typ, _, err := parseHeader(resp)
	if err != nil || typ != rClunk {
		return ErrProtocol
	}
	return nil
}

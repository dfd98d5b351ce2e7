package ninepfs

import (
	"fmt"

	"unikraft/internal/vfscore"
)

// Server is the host-side 9P file server exporting a filesystem tree
// (the paper's setup: "the 9pfs filesystem resides in the host", §5.2).
// It is transport-agnostic: handle takes one T-message and returns one
// R-message.
type Server struct {
	export vfscore.FS
	fids   map[uint32]*srvFid
	msize  uint32
	qidSeq uint64
	qids   map[vfscore.Node]uint64
}

type srvFid struct {
	node vfscore.Node
	open bool
}

// NewServer exports fs.
func NewServer(fs vfscore.FS) *Server {
	return &Server{
		export: fs,
		fids:   map[uint32]*srvFid{},
		msize:  defaultMsize,
		qids:   map[vfscore.Node]uint64{},
	}
}

func (s *Server) qidFor(n vfscore.Node) qid {
	path, ok := s.qids[n]
	if !ok {
		s.qidSeq++
		path = s.qidSeq
		s.qids[n] = path
	}
	t := byte(qtFile)
	if n.IsDir() {
		t = qtDir
	}
	return qid{Type: t, Path: path}
}

func rerror(tag uint16, msg string) []byte {
	return newEnc(rError, tag).Str(msg).Bytes()
}

// handle processes one request message and returns the response.
func (s *Server) handle(req []byte) []byte {
	d, typ, tag, err := parseHeader(req)
	if err != nil {
		return rerror(0xffff, err.Error())
	}
	switch typ {
	case tVersion:
		msize := d.U32()
		ver := d.Str()
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		if msize < 4096 {
			msize = 4096
		}
		if msize > defaultMsize {
			msize = defaultMsize
		}
		s.msize = msize
		if ver != "9P2000" {
			ver = "unknown"
		}
		return newEnc(rVersion, tag).U32(msize).Str(ver).Bytes()

	case tAttach:
		fid := d.U32()
		_ = d.U32() // afid: no auth
		_ = d.Str() // uname
		_ = d.Str() // aname
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		if _, dup := s.fids[fid]; dup {
			return rerror(tag, "fid in use")
		}
		root := s.export.Root()
		s.fids[fid] = &srvFid{node: root}
		return newEnc(rAttach, tag).qid(s.qidFor(root)).Bytes()

	case tWalk:
		fid := d.U32()
		newfid := d.U32()
		n := int(d.U16())
		if n > maxWalkElems {
			return rerror(tag, "too many walk elements")
		}
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			names = append(names, d.Str())
		}
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		if newfid != fid {
			if _, dup := s.fids[newfid]; dup {
				return rerror(tag, "newfid in use")
			}
		}
		node := f.node
		resp := newEnc(rWalk, tag)
		qids := make([]qid, 0, n)
		for _, name := range names {
			next, err := node.Lookup(name)
			if err != nil {
				// Partial walks return the qids matched so far; a
				// zero-element walk of a missing first component is an
				// error (9P semantics).
				if len(qids) == 0 {
					return rerror(tag, err.Error())
				}
				break
			}
			node = next
			qids = append(qids, s.qidFor(node))
		}
		if len(qids) == n {
			s.fids[newfid] = &srvFid{node: node}
		}
		resp.U16(uint16(len(qids)))
		for _, q := range qids {
			resp.qid(q)
		}
		return resp.Bytes()

	case tOpen:
		fid := d.U32()
		mode := d.U8()
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		if mode&oTrunc != 0 && !f.node.IsDir() {
			if err := f.node.Truncate(0); err != nil {
				return rerror(tag, err.Error())
			}
		}
		f.open = true
		return newEnc(rOpen, tag).qid(s.qidFor(f.node)).U32(s.msize - 24).Bytes()

	case tCreate:
		fid := d.U32()
		name := d.Str()
		perm := d.U32()
		_ = d.U8() // mode
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		isDir := perm&0x80000000 != 0 // DMDIR
		child, err := f.node.Create(name, isDir)
		if err != nil {
			return rerror(tag, err.Error())
		}
		f.node = child // fid now refers to the new file (9P semantics)
		f.open = true
		return newEnc(rCreate, tag).qid(s.qidFor(child)).U32(s.msize - 24).Bytes()

	case tRead:
		fid := d.U32()
		off := d.U64()
		count := d.U32()
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		if !f.open {
			return rerror(tag, "fid not open")
		}
		if count > s.msize-24 {
			count = s.msize - 24
		}
		if f.node.IsDir() {
			return s.readDir(tag, f, off, count)
		}
		buf := make([]byte, count)
		n, err := f.node.ReadAt(buf, int64(off))
		if err != nil {
			return rerror(tag, err.Error())
		}
		return newEnc(rRead, tag).Blob(buf[:n]).Bytes()

	case tWrite:
		fid := d.U32()
		off := d.U64()
		data := d.Blob()
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		if !f.open {
			return rerror(tag, "fid not open")
		}
		n, err := f.node.WriteAt(data, int64(off))
		if err != nil {
			return rerror(tag, err.Error())
		}
		return newEnc(rWrite, tag).U32(uint32(n)).Bytes()

	case tClunk:
		fid := d.U32()
		if _, ok := s.fids[fid]; !ok {
			return rerror(tag, "unknown fid")
		}
		delete(s.fids, fid)
		return newEnc(rClunk, tag).Bytes()

	case tRemove:
		// Tremove removes the file the fid refers to and clunks it. Our
		// Node interface removes by (parent, name), so the client sends
		// the parent fid plus the name as an extension field.
		fid := d.U32()
		name := d.Str()
		if d.Err() != nil {
			return rerror(tag, d.Err().Error())
		}
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		if err := f.node.Remove(name); err != nil {
			return rerror(tag, err.Error())
		}
		return newEnc(rRemove, tag).Bytes()

	case tStat:
		fid := d.U32()
		f, ok := s.fids[fid]
		if !ok {
			return rerror(tag, "unknown fid")
		}
		// Minimal stat: qid[13] length[8].
		return newEnc(rStat, tag).qid(s.qidFor(f.node)).U64(uint64(f.node.Size())).Bytes()
	}
	return rerror(tag, fmt.Sprintf("unsupported message type %d", typ))
}

// readDir encodes directory entries as repeated (qid[13] name[s])
// records starting at entry index off.
func (s *Server) readDir(tag uint16, f *srvFid, off uint64, count uint32) []byte {
	ents, err := f.node.ReadDir()
	if err != nil {
		return rerror(tag, err.Error())
	}
	inner := newEnc(rRead, tag)
	var payload []byte
	// An offset past the listing reads nothing, like a file's past EOF.
	for i := int(min(off, uint64(len(ents)))); i < len(ents); i++ {
		rec := make([]byte, 0, 16+len(ents[i].Name))
		t := byte(qtFile)
		if ents[i].IsDir {
			t = qtDir
		}
		rec = append(rec, t)
		rec = append(rec, 0, 0, 0, 0)             // qid version
		rec = append(rec, 0, 0, 0, 0, 0, 0, 0, 0) // qid path (unused in listing)
		rec = append(rec, byte(len(ents[i].Name)), byte(len(ents[i].Name)>>8))
		rec = append(rec, ents[i].Name...)
		if uint32(len(payload)+len(rec)) > count {
			break
		}
		payload = append(payload, rec...)
	}
	return inner.Blob(payload).Bytes()
}

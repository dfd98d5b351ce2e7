// Package ninepfs implements the paper's 9pfs stack (§5.2): a 9P2000
// protocol codec, an in-process host server exporting a filesystem tree,
// and a guest-side client that implements the vfscore FS interface. The
// transport models virtio-9p message latency, calibrated so the Fig 20
// read/write latency series reproduce.
//
// The protocol subset covers version/attach/walk/open/create/read/
// write/clunk/remove/stat, with classic little-endian 9P framing
// (size[4] type[1] tag[2] ...). Directory reads return a sequence of
// (qid[13] name[s]) records — a simplification of the full stat record
// that both ends of this implementation share.
package ninepfs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types (9P2000 numbering).
const (
	tVersion = 100
	rVersion = 101
	tAttach  = 104
	rAttach  = 105
	rError   = 107
	tWalk    = 110
	rWalk    = 111
	tOpen    = 112
	rOpen    = 113
	tCreate  = 114
	rCreate  = 115
	tRead    = 116
	rRead    = 117
	tWrite   = 118
	rWrite   = 119
	tClunk   = 120
	rClunk   = 121
	tRemove  = 122
	rRemove  = 123
	tStat    = 124
	rStat    = 125
)

// Open modes.
const (
	oRead  = 0
	oWrite = 1
	oRdWr  = 2
	oTrunc = 0x10
)

// Qid type bits.
const (
	qtDir  = 0x80
	qtFile = 0x00
)

// noFid is the sentinel "no fid" value.
const noFid = ^uint32(0)

// defaultMsize is the negotiated maximum message size.
const defaultMsize = 65536

// maxWalkElems is 9P2000's MAXWELEM: the names one Twalk may carry,
// which keeps its Rwalk (13 bytes a name) inside any msize.
const maxWalkElems = 16

// qid identifies a file on the server.
type qid struct {
	Type    byte
	Version uint32
	Path    uint64
}

var le = binary.LittleEndian

var errShort = errors.New("ninepfs: short message")

// enc builds a 9P message.
type enc struct{ buf []byte }

// newEnc starts a message of the given type and tag; the size field is
// patched in Bytes.
func newEnc(typ byte, tag uint16) *enc {
	e := &enc{buf: make([]byte, 0, 64)}
	e.buf = append(e.buf, 0, 0, 0, 0, typ)
	e.U16(tag)
	return e
}

// U8 appends a byte.
func (e *enc) U8(v byte) *enc { e.buf = append(e.buf, v); return e }

// U16 appends a 16-bit little-endian value.
func (e *enc) U16(v uint16) *enc {
	var b [2]byte
	le.PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U32 appends a 32-bit little-endian value.
func (e *enc) U32(v uint32) *enc {
	var b [4]byte
	le.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U64 appends a 64-bit little-endian value.
func (e *enc) U64(v uint64) *enc {
	var b [8]byte
	le.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Str appends a 9P string (len[2] + bytes).
func (e *enc) Str(s string) *enc {
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends count[4] + raw bytes.
func (e *enc) Blob(b []byte) *enc {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// qid appends a qid[13].
func (e *enc) qid(q qid) *enc {
	e.U8(q.Type)
	e.U32(q.Version)
	e.U64(q.Path)
	return e
}

// Bytes finalizes the message (patches size[4]) and returns the wire
// form.
func (e *enc) Bytes() []byte {
	le.PutUint32(e.buf[0:4], uint32(len(e.buf)))
	return e.buf
}

// dec reads a 9P message.
type dec struct {
	buf []byte
	off int
	err error
}

// parseHeader validates framing and returns a decoder positioned after
// the header, plus the type and tag.
func parseHeader(msg []byte) (*dec, byte, uint16, error) {
	if len(msg) < 7 {
		return nil, 0, 0, errShort
	}
	size := le.Uint32(msg[0:4])
	if int(size) != len(msg) {
		return nil, 0, 0, fmt.Errorf("ninepfs: size field %d != buffer %d", size, len(msg))
	}
	typ := msg[4]
	tag := le.Uint16(msg[5:7])
	return &dec{buf: msg, off: 7}, typ, tag, nil
}

// Err reports the first decoding error.
func (d *dec) Err() error { return d.err }

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = errShort
		return false
	}
	return true
}

// U8 reads a byte.
func (d *dec) U8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a 16-bit value.
func (d *dec) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := le.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads a 32-bit value.
func (d *dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := le.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a 64-bit value.
func (d *dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := le.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Str reads a 9P string.
func (d *dec) Str() string {
	n := int(d.U16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads count[4]+bytes.
func (d *dec) Blob() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// qid reads a qid[13].
func (d *dec) qid() qid {
	return qid{Type: d.U8(), Version: d.U32(), Path: d.U64()}
}

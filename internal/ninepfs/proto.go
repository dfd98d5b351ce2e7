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
	Tversion = 100
	Rversion = 101
	Tattach  = 104
	Rattach  = 105
	Rerror   = 107
	Twalk    = 110
	Rwalk    = 111
	Topen    = 112
	Ropen    = 113
	Tcreate  = 114
	Rcreate  = 115
	Tread    = 116
	Rread    = 117
	Twrite   = 118
	Rwrite   = 119
	Tclunk   = 120
	Rclunk   = 121
	Tremove  = 122
	Rremove  = 123
	Tstat    = 124
	Rstat    = 125
)

// Open modes.
const (
	OREAD  = 0
	OWRITE = 1
	ORDWR  = 2
	OTRUNC = 0x10
)

// Qid type bits.
const (
	QTDIR  = 0x80
	QTFILE = 0x00
)

// NOFID is the sentinel "no fid" value.
const NOFID = ^uint32(0)

// DefaultMsize is the negotiated maximum message size.
const DefaultMsize = 65536

// maxWalkElems is 9P2000's MAXWELEM: the names one Twalk may carry,
// which keeps its Rwalk (13 bytes a name) inside any msize.
const maxWalkElems = 16

// Qid identifies a file on the server.
type Qid struct {
	Type    byte
	Version uint32
	Path    uint64
}

var le = binary.LittleEndian

var errShort = errors.New("ninepfs: short message")

// Enc builds a 9P message.
type Enc struct{ buf []byte }

// NewEnc starts a message of the given type and tag; the size field is
// patched in Bytes.
func NewEnc(typ byte, tag uint16) *Enc {
	e := &Enc{buf: make([]byte, 0, 64)}
	e.buf = append(e.buf, 0, 0, 0, 0, typ)
	e.U16(tag)
	return e
}

// U8 appends a byte.
func (e *Enc) U8(v byte) *Enc { e.buf = append(e.buf, v); return e }

// U16 appends a 16-bit little-endian value.
func (e *Enc) U16(v uint16) *Enc {
	var b [2]byte
	le.PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U32 appends a 32-bit little-endian value.
func (e *Enc) U32(v uint32) *Enc {
	var b [4]byte
	le.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U64 appends a 64-bit little-endian value.
func (e *Enc) U64(v uint64) *Enc {
	var b [8]byte
	le.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Str appends a 9P string (len[2] + bytes).
func (e *Enc) Str(s string) *Enc {
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends count[4] + raw bytes.
func (e *Enc) Blob(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Qid appends a qid[13].
func (e *Enc) Qid(q Qid) *Enc {
	e.U8(q.Type)
	e.U32(q.Version)
	e.U64(q.Path)
	return e
}

// Bytes finalizes the message (patches size[4]) and returns the wire
// form.
func (e *Enc) Bytes() []byte {
	le.PutUint32(e.buf[0:4], uint32(len(e.buf)))
	return e.buf
}

// Dec reads a 9P message.
type Dec struct {
	buf []byte
	off int
	err error
}

// ParseHeader validates framing and returns a decoder positioned after
// the header, plus the type and tag.
func ParseHeader(msg []byte) (*Dec, byte, uint16, error) {
	if len(msg) < 7 {
		return nil, 0, 0, errShort
	}
	size := le.Uint32(msg[0:4])
	if int(size) != len(msg) {
		return nil, 0, 0, fmt.Errorf("ninepfs: size field %d != buffer %d", size, len(msg))
	}
	typ := msg[4]
	tag := le.Uint16(msg[5:7])
	return &Dec{buf: msg, off: 7}, typ, tag, nil
}

// Err reports the first decoding error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) need(n int) bool {
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
func (d *Dec) U8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a 16-bit value.
func (d *Dec) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := le.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads a 32-bit value.
func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := le.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a 64-bit value.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := le.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Str reads a 9P string.
func (d *Dec) Str() string {
	n := int(d.U16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads count[4]+bytes.
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Qid reads a qid[13].
func (d *Dec) Qid() Qid {
	return Qid{Type: d.U8(), Version: d.U32(), Path: d.U64()}
}

// Remaining reports undecoded bytes (tests).
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

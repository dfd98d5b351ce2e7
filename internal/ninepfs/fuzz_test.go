package ninepfs

import (
	"testing"

	"unikraft/internal/ramfs"
)

// session packs wire messages into FuzzServerHandle's input form: each
// frame is one length byte, then that many bytes.
func session(msgs ...[]byte) []byte {
	var in []byte
	for _, m := range msgs {
		in = append(in, byte(len(m)))
		in = append(in, m...)
	}
	return in
}

// FuzzServerHandle feeds one host server a whole session of hostile
// T-messages. The input is cut into frames (a length byte, then up to
// that many bytes) and each frame's size field is rewritten to its real
// length, so everything of seven bytes or more gets past ParseHeader
// and into the message decoders; shorter frames take the framing-error
// path. The export is a quota-bound ramfs, so a Twrite cannot ask the
// host for more than 1 MiB. One guest's bytes reach this code in one
// address space with every other guest's export: no frame may panic,
// and every reply is a well-framed message inside the negotiated msize
// that answers its request's tag.
func FuzzServerHandle(f *testing.F) {
	const fid, tag = 1, 7
	f.Add(session(
		NewEnc(Tversion, 0xffff).U32(8192).Str("9P2000").Bytes(),
		NewEnc(Tattach, tag).U32(fid).U32(NOFID).Str("guest").Str("/").Bytes(),
		NewEnc(Twalk, tag).U32(fid).U32(2).U16(0).Bytes(),
		NewEnc(Tcreate, tag).U32(2).Str("dir").U32(0x80000000).U8(OREAD).Bytes(),
		NewEnc(Twalk, tag).U32(fid).U32(3).U16(1).Str("dir").Bytes(),
		NewEnc(Tcreate, tag).U32(3).Str("file").U32(0).U8(ORDWR).Bytes(),
		NewEnc(Twrite, tag).U32(3).U64(3).Blob([]byte("payload")).Bytes(),
		NewEnc(Tread, tag).U32(3).U64(0).U32(64).Bytes(),
		NewEnc(Tstat, tag).U32(3).Bytes(),
		NewEnc(Topen, tag).U32(fid).U8(OREAD).Bytes(),
		NewEnc(Tread, tag).U32(fid).U64(0).U32(4096).Bytes(),
		NewEnc(Topen, tag).U32(3).U8(OWRITE|OTRUNC).Bytes(),
		NewEnc(Tremove, tag).U32(2).Str("file").Bytes(),
		NewEnc(Tclunk, tag).U32(3).Bytes(),
		NewEnc(Tclunk, tag).U32(3).Bytes(),
		NewEnc(200, tag).Bytes(),
	))
	// testdata/fuzz/FuzzServerHandle holds the rest, among them the
	// crashers this target was written around: a directory Tread at
	// offset 1<<63, a Twrite whose end wraps past MaxInt64, and one
	// whose growth wraps the quota sum.

	f.Fuzz(func(t *testing.T, in []byte) {
		export := ramfs.New()
		export.MaxBytes = 1 << 20
		srv := NewServer(export)
		msize, fidFrames := uint32(DefaultMsize), 0
		for len(in) > 0 {
			n := min(int(in[0]), len(in)-1)
			frame := in[1 : 1+n]
			in = in[1+n:]
			if n >= 4 {
				le.PutUint32(frame, uint32(n))
			}
			wantTag := uint16(0xffff)
			if n >= 7 {
				wantTag = le.Uint16(frame[5:7])
				if typ := frame[4]; typ == Tattach || typ == Twalk {
					fidFrames++
				}
			}
			resp := srv.Handle(frame)
			d, typ, gotTag, err := ParseHeader(resp)
			if err != nil {
				t.Fatalf("reply %x to %x: %v", resp, frame, err)
			}
			if gotTag != wantTag {
				t.Fatalf("reply to %x carries tag %#x, want %#x", frame, gotTag, wantTag)
			}
			if typ == Rversion {
				msize = d.U32()
			}
			if uint32(len(resp)) > msize {
				t.Fatalf("reply to %x is %d bytes, msize %d", frame, len(resp), msize)
			}
			if srv.FidCount() > fidFrames {
				t.Fatalf("%d fids live after %d attach and walk frames", srv.FidCount(), fidFrames)
			}
		}
	})
}

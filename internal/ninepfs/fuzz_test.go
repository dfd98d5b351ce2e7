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
// length, so everything of seven bytes or more gets past parseHeader
// and into the message decoders; shorter frames take the framing-error
// path. The export is a quota-bound ramfs, so a Twrite cannot ask the
// host for more than 1 MiB. One guest's bytes reach this code in one
// address space with every other guest's export: no frame may panic,
// and every reply is a well-framed message inside the negotiated msize
// that answers its request's tag.
func FuzzServerHandle(f *testing.F) {
	const fid, tag = 1, 7
	f.Add(session(
		newEnc(tVersion, 0xffff).U32(8192).Str("9P2000").Bytes(),
		newEnc(tAttach, tag).U32(fid).U32(noFid).Str("guest").Str("/").Bytes(),
		newEnc(tWalk, tag).U32(fid).U32(2).U16(0).Bytes(),
		newEnc(tCreate, tag).U32(2).Str("dir").U32(0x80000000).U8(oRead).Bytes(),
		newEnc(tWalk, tag).U32(fid).U32(3).U16(1).Str("dir").Bytes(),
		newEnc(tCreate, tag).U32(3).Str("file").U32(0).U8(oRdWr).Bytes(),
		newEnc(tWrite, tag).U32(3).U64(3).Blob([]byte("payload")).Bytes(),
		newEnc(tRead, tag).U32(3).U64(0).U32(64).Bytes(),
		newEnc(tStat, tag).U32(3).Bytes(),
		newEnc(tOpen, tag).U32(fid).U8(oRead).Bytes(),
		newEnc(tRead, tag).U32(fid).U64(0).U32(4096).Bytes(),
		newEnc(tOpen, tag).U32(3).U8(oWrite|oTrunc).Bytes(),
		newEnc(tRemove, tag).U32(2).Str("file").Bytes(),
		newEnc(tClunk, tag).U32(3).Bytes(),
		newEnc(tClunk, tag).U32(3).Bytes(),
		newEnc(200, tag).Bytes(),
	))
	// testdata/fuzz/FuzzServerHandle holds the rest, among them the
	// crashers this target was written around: a directory Tread at
	// offset 1<<63, a Twrite whose end wraps past MaxInt64, and one
	// whose growth wraps the quota sum.

	f.Fuzz(func(t *testing.T, in []byte) {
		export := ramfs.New()
		export.MaxBytes = 1 << 20
		srv := NewServer(export)
		msize, fidFrames := uint32(defaultMsize), 0
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
				if typ := frame[4]; typ == tAttach || typ == tWalk {
					fidFrames++
				}
			}
			resp := srv.handle(frame)
			d, typ, gotTag, err := parseHeader(resp)
			if err != nil {
				t.Fatalf("reply %x to %x: %v", resp, frame, err)
			}
			if gotTag != wantTag {
				t.Fatalf("reply to %x carries tag %#x, want %#x", frame, gotTag, wantTag)
			}
			if typ == rVersion {
				msize = d.U32()
			}
			if uint32(len(resp)) > msize {
				t.Fatalf("reply to %x is %d bytes, msize %d", frame, len(resp), msize)
			}
			if len(srv.fids) > fidFrames {
				t.Fatalf("%d fids live after %d attach and walk frames", len(srv.fids), fidFrames)
			}
		}
	})
}

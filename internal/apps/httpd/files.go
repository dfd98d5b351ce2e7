package httpd

// Static-file backends: the server resolves request paths through a
// FileBackend, which is either the standard vfscore path
// (open/fstat/sendfile-or-read/close per request) or the specialized
// SHFS volume (hash probe + zero-copy content views, bypassing vfscore
// entirely) — the same two configurations the paper's §6.3 web cache
// swaps between, now driving the HTTP datapath end to end.

import (
	"unikraft/internal/shfs"
	"unikraft/internal/vfscore"
)

// FileBackend resolves request paths to open file handles.
type FileBackend interface {
	// Open returns a handle and the file size, or an error (missing
	// paths map to 404).
	Open(path string) (FileHandle, int64, error)
}

// FileHandle is one opened file.
type FileHandle interface {
	// Sendfile streams [off, off+n) to emit page by page without the
	// caller copying content (n < 0 means to EOF); returns bytes
	// emitted.
	Sendfile(off, n int64, emit func(p []byte) error) (int64, error)
	// ReadAt copies content into p — the copying path.
	ReadAt(p []byte, off int64) (int, error)
	// Close releases the handle.
	Close() error
}

// VFSFiles serves through vfscore: the general path every figure prices
// at ~1600 cycles per open. With the VFS's page cache enabled its
// Sendfile hands cached pages through zero-copy.
type VFSFiles struct {
	VFS *vfscore.VFS
	// handles holds one handle per descriptor number, made on the
	// number's first open and returned by every later one: a handle is
	// just the pair (VFS, fd), used only until its Close. VFS must not
	// change after the first Open.
	handles []*vfsHandle
}

// Open implements FileBackend via open + fstat.
func (b *VFSFiles) Open(path string) (FileHandle, int64, error) {
	fd, err := b.VFS.Open(path, vfscore.ORdOnly)
	if err != nil {
		return nil, 0, err
	}
	st, err := b.VFS.StatFD(fd)
	if err != nil || st.IsDir {
		b.VFS.Close(fd)
		if err == nil {
			err = vfscore.ErrIsDir
		}
		return nil, 0, err
	}
	for len(b.handles) <= fd {
		b.handles = append(b.handles, nil)
	}
	if b.handles[fd] == nil {
		b.handles[fd] = &vfsHandle{vfs: b.VFS, fd: fd}
	}
	return b.handles[fd], st.Size, nil
}

type vfsHandle struct {
	vfs *vfscore.VFS
	fd  int
}

func (h *vfsHandle) Sendfile(off, n int64, emit func([]byte) error) (int64, error) {
	return h.vfs.Sendfile(h.fd, off, n, emit)
}

func (h *vfsHandle) ReadAt(p []byte, off int64) (int, error) {
	return h.vfs.PRead(h.fd, p, off)
}

func (h *vfsHandle) Close() error { return h.vfs.Close(h.fd) }

// SHFSFiles serves straight from the hash filesystem — the specialized
// ~300-cycle open path of Fig 22, with zero-copy content views.
type SHFSFiles struct {
	Vol *shfs.FS
}

// Open implements FileBackend via a single hash probe.
func (b *SHFSFiles) Open(path string) (FileHandle, int64, error) {
	h, err := b.Vol.Open(path)
	if err != nil {
		return nil, 0, err
	}
	size, err := b.Vol.Size(h)
	if err != nil {
		return nil, 0, err
	}
	return &shfsHandle{vol: b.Vol, h: h}, size, nil
}

type shfsHandle struct {
	vol *shfs.FS
	h   shfs.Handle
}

// Sendfile emits zero-copy slices of the volume's content blob in page
// chunks (no per-byte charge — just the handoff, as in MiniCache's
// direct SHFS-to-TX path).
func (h *shfsHandle) Sendfile(off, n int64, emit func([]byte) error) (int64, error) {
	size, err := h.vol.Size(h.h)
	if err != nil {
		return 0, err
	}
	end := size
	if n >= 0 && n < end-off { // not off+n < end: that wraps for n near MaxInt64
		end = off + n
	}
	var total int64
	for pos := off; pos < end; {
		// Chunk at the VFS page size so both backends hand the socket
		// layer equal-sized pieces.
		chunk := int(end - pos)
		if chunk > vfscore.PageSize {
			chunk = vfscore.PageSize
		}
		p, err := h.vol.ReadSlice(h.h, pos, chunk)
		if err != nil {
			return total, err
		}
		if len(p) == 0 {
			break
		}
		if err := emit(p); err != nil {
			return total, err
		}
		total += int64(len(p))
		pos += int64(len(p))
	}
	return total, nil
}

func (h *shfsHandle) ReadAt(p []byte, off int64) (int, error) {
	return h.vol.ReadAt(h.h, p, off)
}

func (h *shfsHandle) Close() error { return h.vol.Close(h.h) }

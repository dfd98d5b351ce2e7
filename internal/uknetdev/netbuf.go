package uknetdev

import "fmt"

// Netbuf is the uk_netbuf packet wrapper (§3.1): meta-information around
// an application-owned buffer. The layout is under the application's
// control; drivers only read Data[Off:Off+Len].
//
// A Netbuf is either unmanaged (built directly or via NewNetbuf; the
// owner controls its lifetime and drivers snapshot its payload) or
// pool-managed (from NetbufPool.Get; reference-counted, recycled on the
// pool's free list when the last reference is released, and handed
// through the datapath without payload copies).
type Netbuf struct {
	// Data is the backing buffer, allocated by the application or
	// network stack (possibly from a ukalloc pool).
	Data []byte
	// Off is the start of packet bytes within Data (headroom before it
	// lets stacks prepend headers without copying).
	Off int
	// Len is the packet length.
	Len int
	// Priv is per-packet application state (lwIP pbuf pointer etc.).
	Priv any

	// refs is the reference count for pool-managed buffers; 0 on
	// unmanaged buffers.
	refs int32
	// pool is the owning free list, nil for unmanaged buffers.
	pool *NetbufPool
}

// Bytes returns the packet payload view.
func (nb *Netbuf) Bytes() []byte {
	nb.checkLive("Bytes")
	return nb.Data[nb.Off : nb.Off+nb.Len]
}

// Prepend grows the packet at the front by n bytes (consuming headroom)
// and returns the new front slice, or nil if headroom is insufficient.
func (nb *Netbuf) Prepend(n int) []byte {
	nb.checkLive("Prepend")
	if nb.Off < n {
		return nil
	}
	nb.Off -= n
	nb.Len += n
	return nb.Data[nb.Off : nb.Off+n]
}

// trim removes n bytes from the front (after parsing a header).
func (nb *Netbuf) trim(n int) {
	nb.checkLive("trim")
	if n > nb.Len {
		n = nb.Len
	}
	nb.Off += n
	nb.Len -= n
}

// Pooled reports whether the buffer is pool-managed (refcounted,
// zero-copy capable).
func (nb *Netbuf) Pooled() bool { return nb.pool != nil }

// Refs reports the current reference count (0 for unmanaged buffers).
func (nb *Netbuf) Refs() int { return int(nb.refs) }

// ref takes an additional reference on a pool-managed buffer and
// returns nb for chaining. Unmanaged buffers are returned unchanged —
// their owner manages their lifetime.
func (nb *Netbuf) ref() *Netbuf {
	if nb.pool == nil {
		return nb
	}
	nb.checkLive("ref")
	nb.refs++
	return nb
}

// Release drops one reference; the last release returns the buffer to
// its pool's free list. Releasing a dead or unmanaged buffer panics —
// a double free in the datapath is a correctness bug, not a condition
// to limp past.
func (nb *Netbuf) Release() {
	if nb.pool == nil {
		panic("uknetdev: Release of unmanaged netbuf")
	}
	if nb.refs <= 0 {
		panic("uknetdev: netbuf double free")
	}
	nb.refs--
	if nb.refs == 0 {
		nb.pool.put(nb)
	}
}

// checkLive panics on use-after-release of a pool-managed buffer.
// Unmanaged buffers skip the check (refs stays 0 by construction).
func (nb *Netbuf) checkLive(op string) {
	if nb.pool != nil && nb.refs <= 0 {
		panic(fmt.Sprintf("uknetdev: %s on released netbuf", op))
	}
}

// NewNetbuf allocates an unmanaged netbuf with the given headroom and
// payload capacity from plain Go memory (stacks with pools use their
// own).
func NewNetbuf(headroom, capacity int) *Netbuf {
	return &Netbuf{Data: make([]byte, headroom+capacity), Off: headroom}
}

// NetbufPool is a free list of fixed-geometry netbufs. The datapath
// recycles buffers through it instead of allocating per packet: Get pops
// a recycled buffer (or allocates on a cold pool), the last Release puts
// it back. Pools are single-goroutine, like the stacks and devices that
// own them; independent simulated machines use independent pools.
type NetbufPool struct {
	headroom, capacity int
	free               []*Netbuf

	// Gets, News and Puts count pool traffic: News is the number of
	// buffers that had to be allocated because the free list was empty —
	// on a warmed-up datapath it stops growing.
	Gets, News, Puts uint64
}

// NewNetbufPool builds a pool of buffers with the given headroom and
// payload capacity, pre-populating prealloc buffers on the free list.
func NewNetbufPool(headroom, capacity, prealloc int) *NetbufPool {
	p := &NetbufPool{headroom: headroom, capacity: capacity}
	for i := 0; i < prealloc; i++ {
		nb := NewNetbuf(headroom, capacity)
		nb.pool = p
		p.free = append(p.free, nb)
	}
	return p
}

// Get returns a live buffer with one reference, full headroom and zero
// length.
func (p *NetbufPool) Get() *Netbuf {
	p.Gets++
	var nb *Netbuf
	if n := len(p.free); n > 0 {
		nb = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		p.News++
		nb = NewNetbuf(p.headroom, p.capacity)
		nb.pool = p
	}
	nb.Off = p.headroom
	nb.Len = 0
	nb.Priv = nil
	nb.refs = 1
	return nb
}

// put returns a dead buffer to the free list (called by Release).
func (p *NetbufPool) put(nb *Netbuf) {
	p.Puts++
	p.free = append(p.free, nb)
}

// FreeLen reports buffers currently on the free list (tests).
func (p *NetbufPool) FreeLen() int { return len(p.free) }

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
	// next links a released buffer into its pool's free list.
	next *Netbuf
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

// Pooled reports whether the buffer is pool-managed (refcounted,
// zero-copy capable).
func (nb *Netbuf) Pooled() bool { return nb.pool != nil }

// Refs reports the current reference count (0 for unmanaged buffers).
func (nb *Netbuf) Refs() int { return int(nb.refs) }

// Ref takes an additional reference on a pool-managed buffer and
// returns nb for chaining; whoever holds it must Release it. Unmanaged
// buffers are returned unchanged — their owner manages their lifetime.
func (nb *Netbuf) Ref() *Netbuf {
	if nb.pool == nil {
		return nb
	}
	nb.checkLive("Ref")
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
// a recycled buffer (or grows a cold pool), the last Release puts it
// back. A pool grows in slabs — one array of Netbufs and one data array
// carved into equal slots, each buffer's Data capped to its own slot so
// an append cannot reach a neighbour — of max(8, made/8) buffers, so
// the in-flight window of a busy datapath costs a few dozen allocations
// instead of two per buffer, while a pool that needs a handful more
// buffers gets little more than a handful. Pools are single-goroutine,
// like the stacks and devices that own them; independent simulated
// machines use independent pools.
type NetbufPool struct {
	headroom, capacity int
	free               *Netbuf // LIFO free list, linked through Netbuf.next
	made               int     // buffers in all slabs, prealloc included

	// Gets, News and Puts count pool traffic: News is the number of
	// buffers made because the free list was empty — on a warmed-up
	// datapath it stops growing.
	Gets, News, Puts uint64
}

// NewNetbufPool builds a pool of buffers with the given headroom and
// payload capacity, pre-populating prealloc buffers (one slab) on the
// free list.
func NewNetbufPool(headroom, capacity, prealloc int) *NetbufPool {
	p := &NetbufPool{headroom: headroom, capacity: capacity}
	p.grow(prealloc)
	return p
}

// grow puts one slab of n new buffers on the free list.
func (p *NetbufPool) grow(n int) {
	size := p.headroom + p.capacity
	slab := make([]Netbuf, n)
	data := make([]byte, n*size)
	for i := range slab {
		nb := &slab[i]
		nb.Data = data[i*size : (i+1)*size : (i+1)*size]
		nb.pool = p
		nb.next = p.free
		p.free = nb
	}
	p.made += n
}

// Get returns a live buffer with one reference, full headroom and zero
// length.
func (p *NetbufPool) Get() *Netbuf {
	p.Gets++
	if p.free == nil {
		n := max(8, p.made/8)
		p.News += uint64(n)
		p.grow(n)
	}
	nb := p.free
	p.free, nb.next = nb.next, nil
	nb.Off = p.headroom
	nb.Len = 0
	nb.Priv = nil
	nb.refs = 1
	return nb
}

// put returns a dead buffer to the free list (called by Release).
func (p *NetbufPool) put(nb *Netbuf) {
	p.Puts++
	nb.next = p.free
	p.free = nb
}

// FreeLen reports buffers currently on the free list (tests).
func (p *NetbufPool) FreeLen() int { return p.made - int(p.Gets-p.Puts) }

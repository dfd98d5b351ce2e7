package vfscore

// This file implements the VFS page cache and the Sendfile fast path —
// the storage half of the zero-copy datapath. Where a plain Read pays a
// per-byte copy out of the filesystem on every call, Sendfile serves
// file content page by page out of the cache and hands each page to the
// caller's emit function by reference; with a zero-copy socket layer
// underneath (netstack.Config.ZeroCopy and TCPConn.WriteRef, which
// queues the page itself until the peer acknowledges it) the bytes
// cross from filesystem to wire without a single copy, charged or on
// the host, until the frame is built. Filesystems that can expose
// stable views of their content (ramfs, SHFS-backed nodes, CowFS over
// either) implement SliceReader and the cache stores those views
// directly — cached "pages" of a snapshot-forked fleet are then literal
// slices of the shared template data, which is what lets clones share
// a read-only page cache COW-safely: writes privatize the node (CowFS)
// and invalidate, they never mutate the shared bytes.
//
// An emitted page never changes afterwards, so whoever it was emitted
// to may keep it: a lent view stays as it was because a SliceReader
// copies its data before the next write, and every other page is a
// fresh copy nothing else writes.
//
// A 4 KiB page served from cache pays sim.CostPageHit and
// sim.CostSendfilePage, 150 cycles, against the ~476 a copying read of
// it pays (sim.CostVFSRW plus 4096 bytes of sim.CostCopy).

import "unikraft/internal/sim"

// PageSize is the cache's page granularity (4 KiB, matching the guest
// page size in ukboot).
const PageSize = 4096

// SliceReader is an optional Node capability: return a read-only view
// of the file's bytes without copying. The view must never change: a
// node that has lent one copies its data before the next WriteAt or
// Truncate, so the write lands in the copy (and the VFS invalidates
// any cached views). ramfs nodes, SHFS-backed nodes and CowFS nodes
// over either implement it; filesystems that materialize content per
// read (9pfs) do not, and the cache falls back to a copying fill for
// them.
type SliceReader interface {
	ReadSlice(off int64, n int) ([]byte, bool)
}

// PageCacheStats counts cache traffic.
type PageCacheStats struct {
	Hits, Misses  uint64
	Evictions     uint64
	Invalidations uint64
	// SharedFills counts misses filled by zero-copy SliceReader views
	// (no per-byte charge); the remainder were copying fills.
	SharedFills uint64
}

// HitRatio is Hits / (Hits + Misses).
func (s PageCacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// pageKey identifies one cached page.
type pageKey struct {
	node Node
	idx  int64
}

// cachedPage pairs the page bytes with the insertion sequence number
// that ties it to exactly one FIFO entry — a stale entry left behind
// by an invalidation can then never evict a page re-inserted later
// under the same key.
type cachedPage struct {
	data []byte
	seq  uint64
}

// fifoEntry is one eviction-queue slot.
type fifoEntry struct {
	key pageKey
	seq uint64
}

// pageCache caches file pages per VFS, bounded by a page budget with
// FIFO eviction. It is single-goroutine, like the VFS that owns it;
// forked clones each own their cache, while the cached slices may be
// shared views of template data (see SliceReader). Both its structures
// are sized once, so inserting and evicting allocate nothing.
type pageCache struct {
	maxPages int
	pages    map[pageKey]cachedPage
	// ring is the eviction queue, n entries from head on, oldest first:
	// one per resident page, plus the stale ones invalidations and
	// re-insertions leave behind until compact drops them.
	ring    []fifoEntry
	head, n int
	nextSeq uint64
	stats   PageCacheStats
}

// newPageCache builds a cache bounded to maxPages pages (minimum 1).
func newPageCache(maxPages int) *pageCache {
	if maxPages < 1 {
		maxPages = 1
	}
	return &pageCache{
		maxPages: maxPages,
		pages:    make(map[pageKey]cachedPage, maxPages+1),
		ring:     make([]fifoEntry, 2*maxPages),
	}
}

// Stats returns a copy of the traffic counters.
func (pc *pageCache) Stats() PageCacheStats { return pc.stats }

// get returns the cached page, or nil on a miss.
func (pc *pageCache) get(node Node, idx int64) []byte {
	if p, ok := pc.pages[pageKey{node, idx}]; ok {
		pc.stats.Hits++
		return p.data
	}
	pc.stats.Misses++
	return nil
}

// live reports whether a queue entry is its page's current one.
func (pc *pageCache) live(e fifoEntry) bool {
	cp, ok := pc.pages[e.key]
	return ok && cp.seq == e.seq
}

// at returns the i-th queue entry, oldest first.
func (pc *pageCache) at(i int) *fifoEntry { return &pc.ring[(pc.head+i)%len(pc.ring)] }

// put inserts a page, evicting FIFO past the budget.
func (pc *pageCache) put(node Node, idx int64, p []byte) {
	key := pageKey{node, idx}
	pc.nextSeq++
	pc.pages[key] = cachedPage{data: p, seq: pc.nextSeq}
	// Stale entries would otherwise fill the ring on a write-heavy
	// workload that never crosses the page budget. Every resident page
	// but the new one has one live entry, so compacting a full ring of
	// 2 x maxPages frees at least half of it: amortized O(1).
	if pc.n == len(pc.ring) {
		pc.compact()
	}
	*pc.at(pc.n) = fifoEntry{key: key, seq: pc.nextSeq}
	pc.n++
	for len(pc.pages) > pc.maxPages && pc.n > 0 {
		e := *pc.at(0)
		*pc.at(0) = fifoEntry{}
		pc.head = (pc.head + 1) % len(pc.ring)
		pc.n--
		if pc.live(e) { // else invalidated, or re-inserted under a newer entry
			delete(pc.pages, e.key)
			pc.stats.Evictions++
		}
	}
}

// compact drops queue entries that no longer match a resident page's
// sequence number (at most one entry per page can match, so order —
// and therefore eviction order — is preserved exactly).
func (pc *pageCache) compact() {
	kept := 0
	for i := 0; i < pc.n; i++ {
		if e := *pc.at(i); pc.live(e) {
			*pc.at(kept) = e
			kept++
		}
	}
	for i := kept; i < pc.n; i++ {
		*pc.at(i) = fifoEntry{}
	}
	pc.n = kept
}

// invalidate drops every cached page of node — called by the VFS on any
// write or truncate, so a cached view can never serve stale content.
// Each resident page has one live queue entry, which is how they are
// found — a pass over the ring, which writes through a cached VFS pay;
// the entries stay behind, stale, until compact or eviction skips
// them.
func (pc *pageCache) invalidate(node Node) {
	for i := 0; i < pc.n; i++ {
		if e := *pc.at(i); e.key.node == node && pc.live(e) {
			delete(pc.pages, e.key)
			pc.stats.Invalidations++
		}
	}
}

// EnablePageCache attaches a page cache of maxPages pages to the VFS.
// Passing 0 detaches it (Sendfile falls back to per-page copying
// reads).
func (v *VFS) EnablePageCache(maxPages int) {
	if maxPages <= 0 {
		v.cache = nil
		return
	}
	v.cache = newPageCache(maxPages)
}

// CacheStats returns the page-cache counters (zero value when no cache
// is attached).
func (v *VFS) CacheStats() PageCacheStats {
	if v.cache == nil {
		return PageCacheStats{}
	}
	return v.cache.Stats()
}

// invalidateCache drops node's cached pages after a content mutation.
func (v *VFS) invalidateCache(node Node) {
	if v.cache != nil {
		v.cache.invalidate(node)
	}
}

// cachedPage returns one page of node through the cache, filling on
// miss (zero-copy via SliceReader when the node supports it, a copying
// read otherwise). The returned slice may be shorter than PageSize at
// EOF; it is read-only.
func (v *VFS) cachedPage(node Node, idx int64) ([]byte, error) {
	if p := v.cache.get(node, idx); p != nil {
		v.machine.Pay(sim.CostPageHit, 1)
		return p, nil
	}
	p, shared, err := readPage(node, idx)
	if err != nil {
		return nil, err
	}
	if shared {
		v.machine.Pay(sim.CostPageShare, 1)
		v.machine.Pay(sim.CostPageInsert, 1)
		v.cache.stats.SharedFills++
	} else {
		v.payRW(len(p))
		v.machine.Pay(sim.CostPageInsert, 1)
	}
	v.cache.put(node, idx, p)
	return p, nil
}

// readPage reads page idx of node, charging nothing: the view a
// SliceReader lends (shared), or else a copy into a fresh buffer —
// never one a later read reuses, since an emitted page must not change.
func readPage(node Node, idx int64) (p []byte, shared bool, err error) {
	off := idx * PageSize
	if sr, ok := node.(SliceReader); ok {
		if p, ok := sr.ReadSlice(off, PageSize); ok {
			return p, true, nil
		}
	}
	buf := make([]byte, PageSize)
	n, err := node.ReadAt(buf, off)
	if err != nil {
		return nil, false, err
	}
	return buf[:n], false, nil
}

// Sendfile streams n bytes of fd starting at off to emit, page by page,
// without the caller ever copying file content: each emitted slice is a
// view of a cached page or, uncached, of a page read for this call,
// and it never changes afterwards, so emit may keep it (TCPConn.WriteRef
// queues it until acknowledged). n < 0 means "to EOF". It returns the
// bytes emitted. This is the storage half of the zero-copy datapath:
// pair it with a zero-copy socket write (netstack.Config.ZeroCopy) and
// the per-request cost drops from two per-byte copies to pointer
// handoffs — the file-serving analog of the paper's §3.1 zero-copy I/O
// design.
func (v *VFS) Sendfile(fd int, off, n int64, emit func(p []byte) error) (int64, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	node := f.node
	if node.IsDir() {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	v.machine.Pay(sim.CostSendfile, 1)
	end := node.Size()
	if n >= 0 && n < end-off { // not off+n < end: that wraps for n near MaxInt64
		end = off + n
	}
	var total int64
	for pos := off; pos < end; {
		idx := pos / PageSize
		pstart := pos - idx*PageSize
		var page []byte
		if v.cache != nil {
			page, err = v.cachedPage(node, idx)
		} else {
			// No cache: a per-page copying read (the pre-page-cache
			// sendfile, still one copy short of the Read+Write path).
			if page, _, err = readPage(node, idx); err == nil {
				v.payRW(len(page))
			}
		}
		if err != nil {
			return total, err
		}
		if pstart >= int64(len(page)) {
			break // sparse tail / concurrent truncate: stop at EOF
		}
		chunk := page[pstart:]
		if rem := end - pos; int64(len(chunk)) > rem {
			chunk = chunk[:rem]
		}
		v.machine.Pay(sim.CostSendfilePage, 1)
		if err := emit(chunk); err != nil {
			return total, err
		}
		total += int64(len(chunk))
		pos += int64(len(chunk))
	}
	return total, nil
}

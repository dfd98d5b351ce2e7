package vfscore

// CacheFIFOLen reports the page cache's eviction queue length, which
// must stay O(maxPages) even under invalidation-heavy workloads.
func (v *VFS) CacheFIFOLen() int {
	if v.cache == nil {
		return 0
	}
	return v.cache.n
}

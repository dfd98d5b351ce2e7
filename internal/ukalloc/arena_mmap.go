//go:build linux && !race

package ukalloc

import (
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappings counts the arena mappings not yet unmapped.
var mappings atomic.Int64

// arenaMem maps n bytes of anonymous memory for a, which the kernel
// zero-fills page by page as the guest first touches them, and unmaps
// it once a is unreachable. If the mapping fails (an empty arena
// cannot be mapped), the arena is a Go slice, which reads the same.
func arenaMem(a *Arena, n int) []byte {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (n+page-1)&^(page-1), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]byte, n)
	}
	mappings.Add(1)
	runtime.AddCleanup(a, unmap, mem)
	return mem[:n:n]
}

func unmap(mem []byte) {
	if syscall.Munmap(mem) == nil {
		mappings.Add(-1)
	}
}

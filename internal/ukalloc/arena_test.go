package ukalloc_test

import (
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// TestArenaMarkScrub checks Mark against a page-by-page model over
// ranges that start, end and span 64-page bitmap words, on an arena
// whose last page is partial, and that Scrub zeroes exactly what was
// marked.
func TestArenaMarkScrub(t *testing.T) {
	const size = 200*ukalloc.PageSize + 100
	a := ukalloc.NewArena(size)
	model := make([]bool, 201)
	rng := sim.NewRand(5)
	for i := 0; i < 400; i++ {
		off := rng.Intn(size)
		n := rng.Intn(size - off + 1)
		if i%3 != 0 {
			n = rng.Intn(min(3*ukalloc.PageSize, size-off) + 1)
		}
		switch i % 4 {
		case 0:
			a.Mark(off, n)
		case 1:
			if n < 8 {
				continue
			}
			a.Put64(off, ^uint64(0))
			n = 8
		default:
			src := rng.Intn(size - n + 1)
			a.Copy(off, src, n)
		}
		for p := off / ukalloc.PageSize; n > 0 && p <= (off+n-1)/ukalloc.PageSize; p++ {
			model[p] = true
		}
		for p, want := range model {
			if a.Marked(p) != want {
				t.Fatalf("step %d (off %d, n %d): page %d marked = %v, want %v", i, off, n, p, a.Marked(p), want)
			}
		}
		if i%50 == 49 {
			mem := a.Bytes()
			for j := range mem {
				if model[j/ukalloc.PageSize] {
					mem[j] = 0xA5
				}
			}
			a.Scrub()
			for j, v := range mem {
				if v != 0 {
					t.Fatalf("step %d: byte %d = %#x after Scrub", i, j, v)
				}
			}
			clear(model)
		}
	}
}

// Package ukbuild is the link step of the build system: it takes a
// resolved micro-library closure and produces an image, applying dead
// code elimination (reachability over the symbol reference graph, the
// moral equivalent of -ffunction-sections + --gc-sections) and link-time
// optimization (elimination of out-of-line comdat copies whose every
// call site was inlined), the two switches the paper sweeps in Fig 8.
package ukbuild

import (
	"fmt"
	"sort"

	"unikraft/internal/core"
)

// Options are the link-time switches.
type Options struct {
	DCE bool // dead code elimination (--gc-sections)
	LTO bool // link-time optimization
}

// Image is a linked unikernel.
type Image struct {
	App      string
	Platform string
	Options  Options
	// Libs is the linked closure, sorted by name.
	Libs []string
	// Bytes is total image size.
	Bytes int
	// PerLib breaks the size down by library.
	PerLib map[string]int
	// Symbols counts linked symbols.
	Symbols int
	// RemovedBytes counts what DCE/LTO dropped.
	RemovedBytes int
}

// Providers returns the API-provider selection an application profile
// implies on a platform — the single place the profile-to-Kconfig
// mapping lives (the build step, dependency-graph tools and the
// experiment harness all resolve through it).
func Providers(app core.AppProfile, platform string) map[string]string {
	providers := map[string]string{"plat": "plat-" + platform}
	if app.Libc != "" {
		providers["libc"] = app.Libc
	}
	if app.Allocator != "" {
		providers["ukalloc"] = app.Allocator
	}
	if app.Scheduler != "" {
		providers["uksched"] = app.Scheduler
	}
	if app.NICs > 0 {
		providers["netstack"] = "lwip"
		providers["netdev"] = "uknetdev"
	}
	return providers
}

// Build resolves an application profile against the catalog and links
// it for the given platform ("kvm", "xen", "solo5", "linuxu").
func Build(c *core.Catalog, app core.AppProfile, platform string, opts Options) (*Image, error) {
	providers := Providers(app, platform)
	closure, err := c.Closure([]string{app.Lib}, providers)
	if err != nil {
		return nil, fmt.Errorf("ukbuild: resolving %s: %w", app.Name, err)
	}
	// Platform filtering: a library tied to a different platform in the
	// closure is a configuration error.
	for _, l := range closure {
		if l.Platform != "" && l.Platform != platform {
			return nil, fmt.Errorf("ukbuild: %s is %s-only but target is %s", l.Name, l.Platform, platform)
		}
	}
	return link(app, platform, closure, opts), nil
}

// link produces the image from an explicit closure.
func link(app core.AppProfile, platform string, closure []*core.Library, opts Options) *Image {
	img := &Image{
		App:      app.Name,
		Platform: platform,
		Options:  opts,
		PerLib:   map[string]int{},
	}
	// Gather all symbols and the reachability roots: every library's
	// entry symbol is referenced from the image's init table (Unikraft
	// constructors), so the used chains are live.
	type located struct {
		lib *core.Library
		sym core.Symbol
	}
	byName := map[string][]located{}
	var total int
	for _, l := range closure {
		img.Libs = append(img.Libs, l.Name)
		for _, s := range l.Symbols {
			byName[s.Name] = append(byName[s.Name], located{l, s})
			total += s.Size
		}
	}
	sort.Strings(img.Libs)

	// LTO: comdat copies are eliminated (their call sites were inlined;
	// the out-of-line copies are provably unreferenced across the whole
	// program).
	dropComdat := opts.LTO || opts.DCE

	include := func(loc located) {
		img.Bytes += loc.sym.Size
		img.PerLib[loc.lib.Name] += loc.sym.Size
		img.Symbols++
	}

	if !opts.DCE {
		for _, locs := range byName {
			for _, loc := range locs {
				if dropComdat && loc.sym.Kind == core.SymComdat {
					continue
				}
				include(loc)
			}
		}
		img.RemovedBytes = total - img.Bytes
		return img
	}

	// DCE: breadth-first reachability from the constructor roots over
	// symbol references; only reachable symbols are linked.
	reached := map[string]bool{}
	var queue []string
	for _, l := range closure {
		queue = append(queue, l.EntrySymbol())
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if reached[name] {
			continue
		}
		reached[name] = true
		for _, loc := range byName[name] {
			for _, ref := range loc.sym.Refs {
				if !reached[ref] {
					queue = append(queue, ref)
				}
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !reached[n] {
			continue
		}
		for _, loc := range byName[n] {
			include(loc)
		}
	}
	img.RemovedBytes = total - img.Bytes
	return img
}

// KB renders bytes as the paper's KB/MB strings.
func KB(bytes int) string {
	if bytes >= 1024*1024 {
		return fmt.Sprintf("%.1fMB", float64(bytes)/(1024*1024))
	}
	return fmt.Sprintf("%.1fKB", float64(bytes)/1024)
}

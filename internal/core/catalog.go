package core

import (
	"fmt"
	"sort"
)

// This file builds the default Unikraft micro-library catalog with
// symbol tables calibrated against the paper's image-size measurements.
//
// Calibration (Fig 8, bytes are KB unless noted):
//
//	            default   +LTO    +DCE   +DCE+LTO
//	helloworld   256.7    256.7   192.7   192.7
//	nginx       1600     1200     832.8   832.8
//	redis       1800     1400    1100    1100
//	sqlite      1600     1300     832.8   832.8
//
// The identities DCE+LTO == DCE and (hello) LTO == default pin the
// model: SymComdat bytes are removed by either LTO or DCE, SymUnused
// bytes only by DCE, and the hello closure contains no comdats.

// libSpec is the calibration row for one library: bytes of used,
// unused (DCE-removable) and comdat (LTO- or DCE-removable) code.
type libSpec struct {
	used, unused, comdat  int // bytes
	provides, needs, deps []string
	platform              string
	isApp                 bool
}

const kb = 1024

// specs lists the calibrated catalog. Shared-library splits were chosen
// so every app closure sums exactly to the Fig 8 column values (see the
// tests).
var specs = map[string]libSpec{
	// Platform libraries (API "plat").
	"plat-kvm":    {used: 120 * kb, unused: 30 * kb, provides: []string{"plat"}, platform: "kvm"},
	"plat-xen":    {used: 22 * kb, unused: 6 * kb, provides: []string{"plat"}, platform: "xen"},
	"plat-linuxu": {used: 90 * kb, unused: 20 * kb, provides: []string{"plat"}, platform: "linuxu"},
	"plat-solo5":  {used: 58 * kb, unused: 12 * kb, provides: []string{"plat"}, platform: "solo5"},

	// libc layer (API "libc").
	"nolibc": {used: 12 * kb, unused: 16 * kb, provides: []string{"libc"}},
	"musl":   {used: 180 * kb, unused: 70 * kb, comdat: 100 * kb, provides: []string{"libc"}, deps: []string{"syscall-shim"}},
	"newlib": {used: 230 * kb, unused: 90 * kb, comdat: 110 * kb, provides: []string{"libc"}, deps: []string{"syscall-shim"}},

	// Boot & misc core.
	"ukboot":     {used: 25 * kb, unused: 10 * kb, needs: []string{"plat", "ukalloc"}, deps: []string{"ukargparse"}},
	"ukargparse": {used: 5 * kb},
	"ukdebug":    {used: 10 * kb, unused: 5 * kb},
	"uktime":     {used: 10 * kb, unused: 5 * kb},
	"uklock":     {used: 8 * kb, unused: 5 * kb},

	// Memory allocation (API "ukalloc" + backends).
	"ukalloc":      {used: 12 * kb, unused: 4 * kb, provides: []string{"ukalloc-api"}},
	"ukallocbuddy": {used: 15 * kb, unused: 4 * kb, provides: []string{"ukalloc"}, deps: []string{"ukalloc"}},
	"ukalloctlsf":  {used: 18 * kb, unused: 4 * kb, provides: []string{"ukalloc"}, deps: []string{"ukalloc"}},
	"ukalloctiny":  {used: 6 * kb, unused: 2 * kb, provides: []string{"ukalloc"}, deps: []string{"ukalloc"}},
	"ukallocmim":   {used: 48 * kb, unused: 10 * kb, provides: []string{"ukalloc"}, deps: []string{"ukalloc", "uksched"}},
	"ukallocboot":  {used: 3 * kb, unused: 1 * kb, provides: []string{"ukalloc"}, deps: []string{"ukalloc"}},

	// Scheduling (API "uksched" + policies).
	"uksched":        {used: 12 * kb, unused: 10 * kb, comdat: 20 * kb, provides: []string{"uksched-api"}},
	"ukschedcoop":    {used: 8 * kb, unused: 5 * kb, provides: []string{"uksched"}, deps: []string{"uksched"}},
	"ukschedpreempt": {used: 11 * kb, unused: 5 * kb, provides: []string{"uksched"}, deps: []string{"uksched"}},

	// POSIX layer.
	"syscall-shim":  {used: 20 * kb, unused: 5 * kb},
	"posix-fdtab":   {used: 15 * kb, unused: 5 * kb, needs: []string{"vfs"}},
	"posix-process": {used: 10 * kb, unused: 5 * kb},
	"posix-socket":  {used: 20 * kb, unused: 10 * kb, comdat: 20 * kb, needs: []string{"netstack"}},

	// Filesystems (API "vfs" and implementations).
	"vfscore": {used: 35 * kb, unused: 12 * kb, comdat: 30 * kb, provides: []string{"vfs"}},
	"ramfs":   {used: 15 * kb, unused: 5 * kb, provides: []string{"rootfs"}, deps: []string{"vfscore"}},
	"9pfs":    {used: 25 * kb, unused: 8 * kb, provides: []string{"rootfs"}, deps: []string{"vfscore"}},
	"shfs":    {used: 12 * kb, unused: 2 * kb},

	// Networking.
	"uknetdev":   {used: 30 * kb, unused: 10 * kb, provides: []string{"netdev"}},
	"virtio-net": {used: 22 * kb, unused: 6 * kb, deps: []string{"uknetdev"}, platform: "kvm"},
	"netfront":   {used: 20 * kb, unused: 6 * kb, deps: []string{"uknetdev"}, platform: "xen"},
	"lwip":       {used: 150 * kb, unused: 40 * kb, comdat: 80 * kb, provides: []string{"netstack"}, needs: []string{"netdev"}, deps: []string{"uktime"}},
	"mtcp":       {used: 180 * kb, unused: 30 * kb, comdat: 40 * kb, provides: []string{"netstack"}, needs: []string{"netdev"}},

	// Applications. The app residuals absorb per-image calibration (see
	// package comment).
	"app-helloworld": {used: 3788, isApp: true, needs: []string{"libc"}, deps: []string{"ukboot"}},
	"app-nginx": {used: 135987, unused: 130252, comdat: 150 * kb, isApp: true,
		needs: []string{"libc", "uksched", "ukalloc"},
		deps:  []string{"posix-socket", "posix-fdtab", "posix-process", "vfscore", "ramfs", "lwip", "uklock", "uktime", "ukdebug", "ukboot"}},
	"app-redis": {used: 409600, unused: 61440, comdat: 150 * kb, isApp: true,
		needs: []string{"libc", "uksched", "ukalloc"},
		deps:  []string{"posix-socket", "posix-fdtab", "posix-process", "vfscore", "ramfs", "lwip", "uklock", "uktime", "ukdebug", "ukboot"}},
	"app-sqlite": {used: 340787, unused: 294093, comdat: 150 * kb, isApp: true,
		needs: []string{"libc", "uksched", "ukalloc"},
		deps:  []string{"posix-fdtab", "posix-process", "vfscore", "ramfs", "uklock", "uktime", "ukdebug", "ukboot"}},
	"app-webcache": {used: 40 * kb, unused: 8 * kb, isApp: true,
		needs: []string{"libc", "ukalloc"},
		deps:  []string{"shfs", "lwip", "ukboot", "uktime"}},
	"app-udpkv": {used: 20 * kb, unused: 4 * kb, isApp: true,
		needs: []string{"libc", "ukalloc"},
		deps:  []string{"uknetdev", "ukboot"}},
}

// startupHeaps are the applications' heap demands at startup.
var startupHeaps = map[string]int{
	"helloworld": 256 << 10,
	"nginx":      2 << 20,
	"redis":      4 << 20,
	"sqlite":     1 << 20,
}

// StartupHeap reports the bytes app allocates at startup: the floor
// minimum-memory probing (Fig 11) must fit. An app without a row gets
// 1 MiB.
func StartupHeap(app string) int {
	if b, ok := startupHeaps[app]; ok {
		return b
	}
	return 1 << 20
}

// symbolChunk is the granularity synthetic symbols are generated at.
const symbolChunk = 2048

// DefaultCatalog builds the calibrated catalog plus any libraries added
// via RegisterLibrary. Symbol tables are synthesized deterministically:
// used symbols form a reference chain rooted at the library's entry
// symbol, unused and comdat symbols are unreferenced. Libraries are
// added in sorted name order so catalogs are identical across runs.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.Add(buildLibrary(name, specs[name]))
	}
	for _, l := range registeredLibs() {
		c.Add(buildLibrary(l.name, l.spec))
	}
	return c
}

func buildLibrary(name string, sp libSpec) *Library {
	l := &Library{
		Name:     name,
		Provides: sp.provides,
		Needs:    sp.needs,
		Deps:     sp.deps,
		Platform: sp.platform,
		IsApp:    sp.isApp,
	}
	// Used symbols: entry -> chain so they are reachable exactly when
	// the entry is referenced.
	chunks := func(total int) []int {
		var out []int
		for total > 0 {
			n := symbolChunk
			if total < n {
				n = total
			}
			out = append(out, n)
			total -= n
		}
		return out
	}
	prev := ""
	for i, size := range chunks(sp.used) {
		sym := Symbol{Size: size, Kind: SymUsed}
		if i == 0 {
			sym.Name = l.EntrySymbol()
		} else {
			sym.Name = fmt.Sprintf("%s.fn%d", name, i)
			// Chain from the previous symbol so reachability holds.
		}
		if prev != "" {
			// Append a forward ref from the previous symbol.
			l.Symbols[len(l.Symbols)-1].Refs = append(l.Symbols[len(l.Symbols)-1].Refs, sym.Name)
		}
		l.Symbols = append(l.Symbols, sym)
		prev = sym.Name
	}
	for i, size := range chunks(sp.unused) {
		l.Symbols = append(l.Symbols, Symbol{
			Name: fmt.Sprintf("%s.unused%d", name, i), Size: size, Kind: SymUnused,
		})
	}
	for i, size := range chunks(sp.comdat) {
		l.Symbols = append(l.Symbols, Symbol{
			Name: fmt.Sprintf("cmdt.inline%d.%s", i, name), Size: size, Kind: SymComdat,
		})
	}
	return l
}

// AppProfile describes a buildable application target.
type AppProfile struct {
	Name      string
	Lib       string
	Libc      string // default libc provider
	Allocator string // default ukalloc provider
	Scheduler string // default uksched provider ("" = none)
	NICs      int
}

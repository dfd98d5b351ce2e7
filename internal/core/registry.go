package core

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the mutable application/library registry behind the
// catalog: the default app table seeds it, and callers (examples, tests,
// future workloads) extend it at run time via RegisterApp and
// RegisterLibrary without touching the calibrated catalog source. It
// mirrors how KraftKit's package catalog is an open set rather than a
// hard-coded table.

var (
	regMu sync.RWMutex
	// appProfiles is the app registry, keyed by profile name.
	appProfiles = map[string]AppProfile{}
	// extraLibs holds libraries registered at run time; DefaultCatalog
	// folds them in after the calibrated built-ins.
	extraLibs = map[string]libSpec{}
	// catalogGen counts library registrations: SharedCatalog rebuilds
	// when it moves.
	catalogGen int64
)

// shared is the default catalog of registry generation gen, built once
// and read by every caller of SharedCatalog.
var shared struct {
	sync.Mutex
	cat *Catalog
	gen int64
}

// SharedCatalog returns the process-wide default catalog: what
// DefaultCatalog builds, synthesized once per registry generation (a
// RegisterLibrary call starts a new one) and shared by every caller. It
// is read-only — Add panics on it; a caller that extends a catalog takes
// its own from DefaultCatalog.
func SharedCatalog() *Catalog {
	regMu.RLock()
	gen := catalogGen
	regMu.RUnlock()
	shared.Lock()
	defer shared.Unlock()
	if shared.cat == nil || shared.gen != gen {
		// Built after gen was read, so it holds at least gen's
		// libraries; a registration racing this call only costs the
		// next caller a rebuild.
		shared.cat, shared.gen = DefaultCatalog(), gen
		shared.cat.readOnly = true
	}
	return shared.cat
}

func init() {
	for _, a := range defaultApps() {
		appProfiles[a.Name] = a
	}
}

// defaultApps is the seed app table used across the paper's evaluation.
func defaultApps() []AppProfile {
	return []AppProfile{
		{Name: "helloworld", Lib: "app-helloworld", Libc: "nolibc", Allocator: "ukallocbuddy"},
		{Name: "nginx", Lib: "app-nginx", Libc: "musl", Allocator: "ukalloctlsf", Scheduler: "ukschedcoop", NICs: 1},
		{Name: "redis", Lib: "app-redis", Libc: "musl", Allocator: "ukallocmim", Scheduler: "ukschedcoop", NICs: 1},
		{Name: "sqlite", Lib: "app-sqlite", Libc: "musl", Allocator: "ukalloctlsf", Scheduler: "ukschedcoop"},
		{Name: "webcache", Lib: "app-webcache", Libc: "nolibc", Allocator: "ukalloctlsf", NICs: 1},
		{Name: "udpkv", Lib: "app-udpkv", Libc: "nolibc", Allocator: "ukallocboot", NICs: 1},
	}
}

// sortedApps lists the registered application profiles, sorted by name so the
// listing is deterministic across runs.
func sortedApps() []AppProfile {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]AppProfile, 0, len(appProfiles))
	for _, a := range appProfiles {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AppNames lists registered application names, sorted.
func AppNames() []string {
	apps := sortedApps()
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// AppByName returns the profile for name.
func AppByName(name string) (AppProfile, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := appProfiles[name]
	return a, ok
}

// RegisterApp adds an application profile to the registry so it can be
// built and booted like the canonical apps. The profile's Lib must name a
// library already in the catalog (built-in or added via RegisterLibrary).
// Empty Libc and Allocator default to "nolibc" and "ukalloctlsf".
func RegisterApp(p AppProfile) error {
	if p.Name == "" {
		return fmt.Errorf("core: RegisterApp: profile has no name")
	}
	if p.Lib == "" {
		return fmt.Errorf("core: RegisterApp(%s): profile has no Lib (register one with RegisterLibrary)", p.Name)
	}
	if p.Libc == "" {
		p.Libc = "nolibc"
	}
	if p.Allocator == "" {
		p.Allocator = "ukalloctlsf"
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := appProfiles[p.Name]; dup {
		return fmt.Errorf("core: RegisterApp: app %q already registered", p.Name)
	}
	if _, ok := specs[p.Lib]; !ok {
		if _, ok := extraLibs[p.Lib]; !ok {
			return fmt.Errorf("core: RegisterApp(%s): library %q not in catalog (register it with RegisterLibrary)", p.Name, p.Lib)
		}
	}
	appProfiles[p.Name] = p
	return nil
}

// LibraryConfig describes a custom micro-library for RegisterLibrary.
// Byte counts feed the same calibrated symbol synthesis as the built-in
// catalog, so DCE/LTO behave identically for registered libraries.
type LibraryConfig struct {
	// UsedBytes is reachable code/data; UnusedBytes is removed by DCE;
	// ComdatBytes by either LTO or DCE.
	UsedBytes, UnusedBytes, ComdatBytes int
	// Provides/Needs/Deps follow the micro-library model of §3.
	Provides, Needs, Deps []string
	// Platform restricts the library to one platform ("" = generic).
	Platform string
	// App marks an application root library.
	App bool
}

// RegisterLibrary adds a custom micro-library to every catalog built
// after the call. Names must not collide with built-ins.
func RegisterLibrary(name string, cfg LibraryConfig) error {
	if name == "" {
		return fmt.Errorf("core: RegisterLibrary: library has no name")
	}
	if cfg.UsedBytes <= 0 {
		return fmt.Errorf("core: RegisterLibrary(%s): UsedBytes must be positive", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := specs[name]; dup {
		return fmt.Errorf("core: RegisterLibrary: %q is a built-in library", name)
	}
	if _, dup := extraLibs[name]; dup {
		return fmt.Errorf("core: RegisterLibrary: %q already registered", name)
	}
	catalogGen++
	// Copy the slices: the registry is process-wide and must not alias
	// buffers the caller may reuse or mutate.
	clone := func(xs []string) []string {
		if len(xs) == 0 {
			return nil
		}
		return append([]string(nil), xs...)
	}
	extraLibs[name] = libSpec{
		used:     cfg.UsedBytes,
		unused:   cfg.UnusedBytes,
		comdat:   cfg.ComdatBytes,
		provides: clone(cfg.Provides),
		needs:    clone(cfg.Needs),
		deps:     clone(cfg.Deps),
		platform: cfg.Platform,
		isApp:    cfg.App,
	}
	return nil
}

// registeredLibs snapshots the run-time registered libraries in sorted
// order for deterministic catalog construction.
func registeredLibs() []struct {
	name string
	spec libSpec
} {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(extraLibs))
	for n := range extraLibs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		name string
		spec libSpec
	}, len(names))
	for i, n := range names {
		out[i] = struct {
			name string
			spec libSpec
		}{n, extraLibs[n]}
	}
	return out
}

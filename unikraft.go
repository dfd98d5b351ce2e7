// Package unikraft is the public API of the Unikraft reproduction: a
// micro-library operating system construction kit (Kuenzer et al.,
// EuroSys'21) over a deterministic full-system simulator.
//
// The SDK is built around two concepts. A Spec declaratively describes
// one unikernel — the application, platform, monitor, allocator, memory
// and build flags, the programmatic analog of a kraftfile — and a
// Runtime owns the catalog and simulator and turns specs into images and
// running VMs:
//
//	rt := unikraft.NewRuntime()
//	spec := unikraft.NewSpec("nginx",
//	    unikraft.WithPlatform(unikraft.PlatformKVM),
//	    unikraft.WithAllocator("tlsf"),
//	    unikraft.WithDCE(), unikraft.WithLTO())
//	img, _ := rt.Build(spec)                   // linked image (Fig 8 pipeline)
//	inst, _ := rt.Run(spec)                    // build + boot in one call
//	defer inst.Close()
//	fmt.Println(img.Bytes, inst.VM.Report.Total())
//
// New workloads register without touching the core catalog:
//
//	unikraft.RegisterLibrary("app-myapp", unikraft.LibraryConfig{
//	    UsedBytes: 64 << 10, App: true, Deps: []string{"ukboot"}})
//	unikraft.RegisterApp(unikraft.AppProfile{Name: "myapp", Lib: "app-myapp"})
//	inst, _ := rt.Run(unikraft.NewSpec("myapp"))
//
// Everything the paper's evaluation measures is regenerable through
// Runtime.RunExperiment / Runtime.RunAllExperiments; see EXPERIMENTS.md
// for paper-vs-measured.
package unikraft

import (
	"fmt"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/core"
	"unikraft/internal/experiments"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
)

// Image is a linked unikernel image.
type Image = ukbuild.Image

// VM is a booted unikernel instance.
type VM = ukboot.VM

// BootReport is the timing breakdown of a boot.
type BootReport = ukboot.Report

// ExperimentResult is a regenerated table/figure.
type ExperimentResult = experiments.Result

// AppProfile describes a buildable application target for RegisterApp.
type AppProfile = core.AppProfile

// LibraryConfig describes a custom micro-library for RegisterLibrary.
type LibraryConfig = core.LibraryConfig

// Platform names accepted by specs.
const (
	PlatformKVM    = "kvm"
	PlatformXen    = "xen"
	PlatformSolo5  = "solo5"
	PlatformLinuxU = "linuxu"
)

// Allocators lists the currently registered ukalloc backends (the five
// backends of §3.2/§5.5 plus any added via ukalloc.RegisterBackend),
// sorted.
func Allocators() []string { return ukalloc.BackendNames() }

// Apps lists the registered application profiles, sorted.
func Apps() []string { return core.AppNames() }

// Catalog returns the calibrated micro-library catalog (including
// libraries added via RegisterLibrary).
func Catalog() *core.Catalog { return core.DefaultCatalog() }

// RegisterApp adds an application profile to the app registry so specs
// can name it; its Lib must exist in the catalog (see RegisterLibrary).
func RegisterApp(p AppProfile) error { return core.RegisterApp(p) }

// RegisterLibrary adds a custom micro-library to every catalog built
// after the call.
func RegisterLibrary(name string, cfg LibraryConfig) error {
	return core.RegisterLibrary(name, cfg)
}

// NewAllocator builds and initializes a named ukalloc backend over a
// fresh heap (for library users who want just an allocator). Backend and
// catalog provider names are both accepted.
func NewAllocator(name string, heapBytes int) (ukalloc.Allocator, error) {
	return ukalloc.NewInitialized(name, nil, heapBytes)
}

// Experiments lists the regenerable tables/figures.
func Experiments() []string { return experiments.IDs() }

// ExperimentTitle returns an experiment's display title.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// Version is the library version string.
const Version = "2.0.0"

// DefaultCPUHz is the simulated clock rate (the paper's i7-9700K).
const DefaultCPUHz = sim.DefaultHz

// FormatBootReport renders a boot report breakdown.
func FormatBootReport(r BootReport) string {
	out := fmt.Sprintf("vmm %v + guest %v = total %v\n", r.VMM, r.Guest, r.Total())
	for _, s := range r.Steps {
		out += fmt.Sprintf("  %-16s %10v\n", s.Name, s.Duration)
	}
	return out
}

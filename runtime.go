package unikraft

import (
	"fmt"
	"hash/fnv"
	"sync"

	"unikraft/internal/core"
	"unikraft/internal/experiments"
	"unikraft/internal/sim"
	"unikraft/internal/syscalls"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukcluster"
	"unikraft/internal/uknetdev"
	"unikraft/internal/ukplat"
)

// Runtime is the SDK's execution context: builds resolve against the
// process-wide micro-library catalog, and every boot runs on a fresh
// simulated machine. A Runtime is cheap to create, safe for concurrent
// use, and everything that used to be a string-keyed free function over
// hidden globals is a method on it:
//
//	rt := unikraft.NewRuntime()
//	img, err := rt.Build(spec)   // link an image
//	vm, err := rt.Boot(spec)     // build + boot, keep the VM
//	inst, err := rt.Run(spec)    // build + boot, keep both
type Runtime struct {
	// snaps caches one boot template per SnapshotBoot spec, so repeated
	// Runtime.Boot/Run calls pay the full pipeline once and fork after.
	snapMu sync.Mutex
	snaps  map[string]*snapEntry
}

// snapEntry pairs a prevalidated boot context with the captured
// template snapshot forks clone from. The capture runs under the
// entry's own once, so a slow first template boot never serializes
// cache hits (or captures) for other specs behind the map lock.
type snapEntry struct {
	once sync.Once
	ctx  *ukboot.Context
	snap *ukboot.Snapshot
	err  error
}

// NewRuntime builds a Runtime over the calibrated default catalog and
// stock simulated machines.
func NewRuntime() *Runtime { return &Runtime{} }

// Catalog returns the catalog builds resolve against: the process-wide
// default catalog, synthesized once per RegisterLibrary call and shared
// by every Runtime, so libraries registered after NewRuntime stay
// visible and a Runtime's first build costs what every later one does.
// It is read-only; Catalog (the package function) returns a copy to
// extend.
func (rt *Runtime) Catalog() *core.Catalog { return core.SharedCatalog() }

// Apps lists the registered application names, sorted.
func (rt *Runtime) Apps() []string { return core.AppNames() }

// resolved is a Spec with every default filled in and every name
// checked against the catalogs.
type resolved struct {
	profile  core.AppProfile
	platform ukplat.Platform
	backend  string // ukalloc backend booting initializes
	mem      int
	build    ukbuild.Options
	rootFS   string // RootFS with the WithFiles default applied
}

// resolve validates s and fills defaults. All spec errors come from
// here, so Build/Boot/Run fail fast with the same precise messages as
// Validate.
func (rt *Runtime) resolve(s Spec) (resolved, error) {
	var r resolved
	if s.App == "" {
		return r, fmt.Errorf("unikraft: spec has no app (have %v)", core.AppNames())
	}
	profile, ok := core.AppByName(s.App)
	if !ok {
		return r, fmt.Errorf("unikraft: unknown app %q (have %v)", s.App, core.AppNames())
	}
	r.profile = profile

	r.platform = ukplat.KVMQemu
	switch {
	case s.VMM != "":
		p, ok := ukplat.ByVMM(s.VMM)
		if !ok {
			return r, fmt.Errorf("unikraft: unknown VMM %q (have %v)", s.VMM, ukplat.VMMs())
		}
		if s.Platform != "" && s.Platform != p.Name {
			return r, fmt.Errorf("unikraft: VMM %q runs on platform %q, not %q", s.VMM, p.Name, s.Platform)
		}
		r.platform = p
	case s.Platform != "":
		p, ok := ukplat.ByName(s.Platform)
		if !ok {
			return r, fmt.Errorf("unikraft: unknown platform %q (have %v)", s.Platform, ukplat.Names())
		}
		r.platform = p
	}

	alloc := s.Allocator
	if alloc == "" {
		alloc = profile.Allocator
	}
	backend, err := ukalloc.ResolveBackend(alloc)
	if err != nil {
		return r, fmt.Errorf("unikraft: %s: %w", s.App, err)
	}
	r.backend = backend
	// Normalize the profile to the catalog provider so images always
	// link the right ukalloc library, whether the spec or the profile
	// named the allocator by backend or provider name. Run-time-only
	// backends have no provider; they keep the profile's library in the
	// image and swap the heap at boot.
	if provider, ok := ukalloc.ProviderForBackend(backend); ok {
		r.profile.Allocator = provider
	}

	for _, lib := range s.ExtraLibs {
		if _, ok := rt.Catalog().Get(lib); ok {
			continue
		}
		// Boot-step names without a catalog library (e.g. "pthreads")
		// are valid too: they carry a calibrated constructor cost.
		if _, ok := ukboot.LibInitCost(lib); ok {
			continue
		}
		return r, fmt.Errorf("unikraft: unknown extra library %q (not in the catalog or the boot-cost table)", lib)
	}

	if s.TxKickBatch < 0 {
		return r, fmt.Errorf("unikraft: TX kick batch must not be negative, got %d (0 means kick per burst)", s.TxKickBatch)
	}
	r.rootFS = s.RootFS
	if r.rootFS == "" && len(s.Files) > 0 {
		r.rootFS = ukboot.RootRamfs
	}
	if !ukboot.ValidRootFS(r.rootFS) {
		return r, fmt.Errorf("unikraft: unknown root filesystem %q (have %v)", s.RootFS, ukboot.RootFSNames())
	}
	if s.PageCachePages < 0 {
		return r, fmt.Errorf("unikraft: page cache size must not be negative, got %d (0 disables)", s.PageCachePages)
	}
	if s.PageCachePages > 0 && r.rootFS != ukboot.RootRamfs && r.rootFS != ukboot.Root9pfs {
		return r, fmt.Errorf("unikraft: page cache requires a vfscore-backed root filesystem (ramfs or 9pfs), spec has %q", r.rootFS)
	}
	for path := range s.Files {
		if path == "" || path[0] != '/' {
			return r, fmt.Errorf("unikraft: file paths must be absolute, got %q", path)
		}
	}
	if _, err := ukcluster.PolicyByName(s.Affinity); err != nil {
		return r, fmt.Errorf("unikraft: %w", err)
	}
	switch s.Placement {
	case "", "spread", "pack":
	default:
		return r, fmt.Errorf("unikraft: unknown placement %q (have spread, pack)", s.Placement)
	}
	if s.VCPUs < 0 || s.VCPUs > MaxVCPUs {
		return r, fmt.Errorf("unikraft: vCPU count must be 0..%d, got %d (0 means one core)", MaxVCPUs, s.VCPUs)
	}
	if s.NetQueues < 0 || s.NetQueues > MaxNetQueues {
		return r, fmt.Errorf("unikraft: NIC queue count must be 0..%d, got %d (0 means one queue pair)", MaxNetQueues, s.NetQueues)
	}
	if len(s.badProfiles) > 0 {
		return r, fmt.Errorf("unikraft: unknown profile %q (have %v)", s.badProfiles[0], Profiles())
	}
	if s.MemBytes < 0 {
		return r, fmt.Errorf("unikraft: memory must not be negative, got %d (0 means the 64 MiB default)", s.MemBytes)
	}
	if s.StackBytes < 0 {
		return r, fmt.Errorf("unikraft: stack size must not be negative, got %d (0 means the 64 KiB default)", s.StackBytes)
	}
	r.mem = s.MemBytes
	if r.mem == 0 {
		r.mem = 64 << 20
	}
	r.build = ukbuild.Options{DCE: s.DCE, LTO: s.LTO}
	return r, nil
}

// Validate checks a spec against the registries without building
// anything: unknown apps, platforms, VMMs, platform/VMM disagreement,
// unknown allocators, unknown extra libraries and negative memory all
// fail with precise errors (zero memory means the 64 MiB default).
func (rt *Runtime) Validate(s Spec) error {
	_, err := rt.resolve(s)
	return err
}

// Build resolves and links the image a spec describes.
func (rt *Runtime) Build(s Spec) (*Image, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return nil, err
	}
	return ukbuild.Build(rt.Catalog(), r.profile, r.platform.Name, r.build)
}

// Closure resolves the spec's micro-library closure and the API-provider
// selection it implies, for dependency inspection (cmd/ukdeps).
func (rt *Runtime) Closure(s Spec) ([]*core.Library, map[string]string, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return nil, nil, err
	}
	providers := ukbuild.Providers(r.profile, r.platform.Name)
	closure, err := rt.Catalog().Closure([]string{r.profile.Lib}, providers)
	if err != nil {
		return nil, nil, err
	}
	return closure, providers, nil
}

// Instance is a built and booted unikernel: the linked image plus the
// live VM with its boot report.
type Instance struct {
	Image *Image
	VM    *VM
}

// Close releases the instance's VM resources.
func (in *Instance) Close() {
	if in != nil && in.VM != nil {
		in.VM.Close()
	}
}

// bootConfig turns a resolved spec plus its linked image size into the
// ukboot pipeline configuration. Run boots it once; NewPool builds a
// reusable ukboot.Context from it and boots fleets.
func (rt *Runtime) bootConfig(r resolved, s Spec, imageBytes int) ukboot.Config {
	cfg := ukboot.Config{
		Platform:   r.platform,
		MemBytes:   r.mem,
		StackBytes: s.StackBytes,
		ImageBytes: imageBytes,
		PTMode:     ukboot.PTStatic,
		Allocator:  r.backend,
		NICs:       r.profile.NICs,
		Mount9pfs:  s.Mount9pfs,
	}
	if s.DynamicPageTable {
		cfg.PTMode = ukboot.PTDynamic
	}
	cfg.Libs = append(ukboot.ProfileLibs(r.profile.NICs, r.profile.Scheduler), s.ExtraLibs...)
	cfg.ParallelInit = s.InitStages
	cfg.SnapshotBoot = s.SnapshotBoot
	cfg.VCPUs = s.VCPUs
	cfg.NetQueues = s.NetQueues
	cfg.RootFS = r.rootFS
	cfg.Files = s.Files
	cfg.PageCachePages = s.PageCachePages
	return cfg
}

// Close releases runtime-owned resources: the cached boot templates
// behind SnapshotBoot specs (one VM-sized arena each). The runtime
// stays usable — a later SnapshotBoot call simply re-captures its
// template. Instances and pools handed out earlier are unaffected;
// clones only share immutable state.
func (rt *Runtime) Close() {
	rt.snapMu.Lock()
	snaps := rt.snaps
	rt.snaps = nil
	rt.snapMu.Unlock()
	for _, e := range snaps {
		// Do blocks until an in-flight first capture finishes, so a
		// template booted concurrently with Close is still released.
		e.once.Do(func() {})
		if e.snap != nil {
			e.snap.Close()
		}
	}
}

// snapshotFor returns the cached template snapshot for a boot config,
// booting and capturing it on first use. The key renders the fully
// resolved config — not the spec, whose String rounds memory to MiB
// and whose rendering would go stale when RegisterApp/RegisterLibrary
// changes what it resolves to. Two specs share a template exactly when
// they boot identically (e.g. differing only in data-path knobs), and
// a registry change that alters the resolved profile re-captures.
// Close releases the cache.
func (rt *Runtime) snapshotFor(cfg ukboot.Config) (*snapEntry, error) {
	// Files can hold an entire site; rendering its bytes into the key
	// would make every fork pay O(site) formatting. Key on a digest of
	// the (sorted) contents instead, with Files elided from the render.
	filesKey := ""
	renderCfg := cfg
	if len(cfg.Files) > 0 {
		h := fnv.New64a()
		for _, p := range ukboot.SortedFilePaths(cfg.Files) {
			h.Write([]byte(p))
			h.Write([]byte{0})
			h.Write(cfg.Files[p])
			h.Write([]byte{0})
		}
		filesKey = fmt.Sprintf("|files=%d:%x", len(cfg.Files), h.Sum64())
		renderCfg.Files = nil // elide contents from the render only
	}
	key := fmt.Sprintf("%+v%s", renderCfg, filesKey)
	for {
		rt.snapMu.Lock()
		e, ok := rt.snaps[key]
		if !ok {
			e = &snapEntry{}
			if rt.snaps == nil {
				rt.snaps = map[string]*snapEntry{}
			}
			rt.snaps[key] = e
		}
		rt.snapMu.Unlock()
		e.once.Do(func() {
			ctx, err := ukboot.NewContext(cfg)
			if err != nil {
				e.err = err
				return
			}
			snap, err := ctx.Snapshot(sim.NewMachine())
			if err != nil {
				e.err = err
				return
			}
			e.ctx, e.snap = ctx, snap
		})
		if e.err != nil {
			return nil, e.err
		}
		if e.ctx != nil {
			return e, nil
		}
		// A concurrent Close consumed the entry's once before the
		// capture ran and dropped it from the map; retry with a fresh
		// entry, as the Close contract promises a re-capture.
	}
}

// Run builds the spec's image and boots it on a fresh simulated machine
// — the whole pipeline in one call. For SnapshotBoot specs the first
// Run boots and captures a template; every later Run (and pool cold
// boot) forks it copy-on-write instead of replaying the pipeline. The
// caller must Close the instance.
func (rt *Runtime) Run(s Spec) (*Instance, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return nil, err
	}
	img, err := ukbuild.Build(rt.Catalog(), r.profile, r.platform.Name, r.build)
	if err != nil {
		return nil, err
	}
	cfg := rt.bootConfig(r, s, img.Bytes)
	if s.SnapshotBoot {
		e, err := rt.snapshotFor(cfg)
		if err != nil {
			return nil, err
		}
		vm, err := e.ctx.Fork(sim.NewMachine(), e.snap)
		if err != nil {
			return nil, err
		}
		return &Instance{Image: img, VM: vm}, nil
	}
	vm, err := ukboot.Boot(sim.NewMachine(), cfg)
	if err != nil {
		return nil, err
	}
	return &Instance{Image: img, VM: vm}, nil
}

// Boot is Run for callers that only need the VM. The caller must Close
// it.
func (rt *Runtime) Boot(s Spec) (*VM, error) {
	inst, err := rt.Run(s)
	if err != nil {
		return nil, err
	}
	return inst.VM, nil
}

// MinMemory probes the minimum guest memory at which the spec boots and
// the application's startup allocations fit (Fig 11). The spec's
// MemBytes is ignored; its build flags and allocator are honored.
func (rt *Runtime) MinMemory(s Spec) (int, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return 0, err
	}
	img, err := ukbuild.Build(rt.Catalog(), r.profile, r.platform.Name, r.build)
	if err != nil {
		return 0, err
	}
	return ukboot.MinMemory(ukboot.Config{
		Platform:   r.platform,
		ImageBytes: img.Bytes,
		PTMode:     ukboot.PTStatic,
		Allocator:  r.backend,
		// Forked clones need their private page-table reserve to fit.
		SnapshotBoot: s.SnapshotBoot,
	}, core.StartupHeap(s.App))
}

// NetTuning returns the uknetdev kick coalescing configuration a
// spec implies, for callers wiring their own device topologies
// (uknetdev.NewTunedPair) from a declarative Spec.
func (rt *Runtime) NetTuning(s Spec) (uknetdev.Tuning, error) {
	if _, err := rt.resolve(s); err != nil {
		return uknetdev.Tuning{}, err
	}
	return uknetdev.Tuning{TxKickBatch: s.TxKickBatch}, nil
}

// env adapts the runtime for the experiment harness.
func (rt *Runtime) env() *experiments.Env {
	return &experiments.Env{Catalog: rt.Catalog(), NewMachine: sim.NewMachine}
}

// Experiments lists the regenerable tables/figures.
func (rt *Runtime) Experiments() []string { return experiments.IDs() }

// ExperimentTitle returns an experiment's display title.
func (rt *Runtime) ExperimentTitle(id string) string { return experiments.Title(id) }

// RunExperiment regenerates one table/figure against this runtime.
func (rt *Runtime) RunExperiment(id string) (*ExperimentResult, error) {
	return experiments.Run(rt.env(), id)
}

// RunAllExperiments regenerates the whole evaluation concurrently and
// returns the results in ID order (nil slots for failures, with their
// errors joined).
func (rt *Runtime) RunAllExperiments() ([]*ExperimentResult, error) {
	return experiments.RunAll(rt.env())
}

// SyscallAnalysis runs the §4.1 binary-compatibility analysis of the
// top-30 server applications against the supported syscall set.
func (rt *Runtime) SyscallAnalysis() *syscalls.Analysis {
	return syscalls.Analyze(syscalls.Top30Apps(), syscalls.SupportedNumbers)
}

package unikraft

import "fmt"

// Spec is the declarative description of one unikernel: which
// application to specialize, for which platform and monitor, with which
// micro-library choices and build flags — the programmatic analog of a
// kraftfile plus its Kconfig selections. The zero value of every field
// means "use the application profile's default"; a Spec is a plain value
// and can be copied, extended with With, and validated up front with
// Runtime.Validate before any build work happens.
type Spec struct {
	// App names a registered application profile ("nginx", "redis", ...;
	// see Apps and RegisterApp).
	App string

	// Platform targets "kvm", "xen", "solo5" or "linuxu" (default kvm).
	Platform string

	// VMM selects the monitor: "qemu" (default), "qemu-microvm",
	// "firecracker", "solo5-hvt", "xl", or "none" for linuxu. Setting a
	// VMM implies its platform; setting both is validated for agreement.
	VMM string

	// Allocator overrides the profile's ukalloc backend. Both backend
	// names ("tlsf") and catalog provider names ("ukalloctlsf") are
	// accepted.
	Allocator string

	// MemBytes is total guest memory (default 64 MiB).
	MemBytes int

	// StackBytes is the boot stack size (default 64 KiB).
	StackBytes int

	// DCE enables dead code elimination (--gc-sections); LTO enables
	// link-time optimization — the two Fig 8 switches.
	DCE, LTO bool

	// DynamicPageTable selects §6.1's dynamic paging (default static).
	DynamicPageTable bool

	// Mount9pfs adds the virtio-9p mount step (§5.2 boot cost).
	Mount9pfs bool

	// RootFS mounts a populated root filesystem at boot: "ramfs" (the
	// general vfscore path), "shfs" (the specialized MiniCache volume of
	// §6.3, bypassing vfscore) or "9pfs" (a shared host export over
	// virtio-9p). Empty means no filesystem state — the calibrated
	// baseline. Booted VMs expose the result as VM.VFS / VM.SHFS.
	RootFS string

	// Files populates the root filesystem (absolute path -> content);
	// setting it without RootFS implies "ramfs". Snapshot-forked clones
	// share the populated tree copy-on-write.
	Files map[string][]byte

	// PageCachePages bounds the instance's VFS page cache in 4 KiB
	// pages (0 disables). The cache backs the zero-copy Sendfile path;
	// it requires a vfscore-backed RootFS ("ramfs" or "9pfs").
	PageCachePages int

	// ZeroCopy enables the zero-copy data path (§3.1): socket layers
	// hand buffers through by reference instead of copying, so the
	// per-request cost model drops its per-byte copy charges. Off by
	// default — the copying path is the calibrated baseline.
	ZeroCopy bool

	// TxKickBatch coalesces guest→host virtqueue kicks: one
	// VM-exit-class notification per batch of N frames (0 or 1 means
	// kick per burst, the paper's default driver behaviour).
	TxKickBatch int

	// SnapshotBoot instantiates instances by snapshot-fork: the runtime
	// boots one template per spec, captures its post-init state, and
	// clones arrive copy-on-write — charging only the monitor's restore
	// cost plus private-page faults instead of the full boot pipeline
	// (Runtime.Boot, Runtime.Run and pool cold boots all fork). Off by
	// default: the full pipeline is the calibrated Fig 10/14 baseline.
	SnapshotBoot bool

	// InitStages charges independent boot constructors in topologically
	// sorted parallel stages (max per stage instead of sum), keeping
	// the allocator→scheduler→NIC ordering invariants. Off by default.
	InitStages bool

	// VCPUs is the guest vCPU count (0 or 1 = the calibrated
	// single-core image). SMP guests boot one netstack/allocator shard
	// and one scheduler run queue per core; boot charges AP bringup per
	// extra core. Capped at 32.
	VCPUs int

	// NetQueues is the RX/TX queue-pair count per NIC (0 or 1 = single
	// queue). Multi-queue devices steer flows to queues by RSS hash of
	// the 4-tuple, one queue per polling vCPU; boot charges monitor and
	// guest per-queue setup. Capped at the virtio-net maximum of 8.
	NetQueues int

	// Affinity selects the front door's balancing policy when the spec
	// serves through Runtime.NewCluster: "least-loaded" (default),
	// "round-robin", or "hash" for consistent-hash session affinity
	// (requests with the same Request.Key keep hitting the same host).
	// Single-host serving ignores it.
	Affinity string

	// Placement biases the cluster autoscaler: "spread" (default)
	// spills to standby hosts eagerly at moderate backlog, "pack"
	// tolerates several times more backlog per core before paying for
	// another host. Single-host serving ignores it.
	Placement string

	// ExtraLibs lists additional micro-libraries whose constructors run
	// at boot, beyond the ones the profile implies.
	ExtraLibs []string

	// badProfiles records unknown names passed to Profile; validation
	// reports them instead of silently booting an untuned spec.
	badProfiles []string
}

// Option mutates a Spec; NewSpec and Spec.With apply options in order,
// so later options win.
type Option func(*Spec)

// NewSpec builds a Spec for a registered application with the given
// options applied.
func NewSpec(app string, opts ...Option) Spec {
	s := Spec{App: app}
	return s.With(opts...)
}

// With returns a copy of s with more options applied — specs compose:
//
//	base := unikraft.NewSpec("nginx", unikraft.WithDCE(), unikraft.WithLTO())
//	fast := base.With(unikraft.WithAllocator("mimalloc"))
func (s Spec) With(opts ...Option) Spec {
	if len(s.ExtraLibs) > 0 {
		s.ExtraLibs = append([]string(nil), s.ExtraLibs...)
	}
	if len(s.badProfiles) > 0 {
		s.badProfiles = append([]string(nil), s.badProfiles...)
	}
	if len(s.Files) > 0 {
		files := make(map[string][]byte, len(s.Files))
		for p, data := range s.Files {
			files[p] = data
		}
		s.Files = files
	}
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// String renders the spec compactly for logs and errors.
func (s Spec) String() string {
	out := "spec(" + s.App
	if s.Platform != "" {
		out += " plat=" + s.Platform
	}
	if s.VMM != "" {
		out += " vmm=" + s.VMM
	}
	if s.Allocator != "" {
		out += " alloc=" + s.Allocator
	}
	if s.MemBytes != 0 {
		out += fmt.Sprintf(" mem=%dMiB", s.MemBytes>>20)
	}
	if s.StackBytes != 0 {
		out += fmt.Sprintf(" stack=%dKiB", s.StackBytes>>10)
	}
	if s.DCE {
		out += " +dce"
	}
	if s.LTO {
		out += " +lto"
	}
	if s.DynamicPageTable {
		out += " +dynpt"
	}
	if s.Mount9pfs {
		out += " +9pfs"
	}
	if s.RootFS != "" {
		out += " rootfs=" + s.RootFS
	}
	if len(s.Files) > 0 {
		out += fmt.Sprintf(" files=%d", len(s.Files))
	}
	if s.PageCachePages > 0 {
		out += fmt.Sprintf(" pcache=%d", s.PageCachePages)
	}
	if s.ZeroCopy {
		out += " +zc"
	}
	if s.TxKickBatch > 1 {
		out += fmt.Sprintf(" kick=%d", s.TxKickBatch)
	}
	if s.SnapshotBoot {
		out += " +snap"
	}
	if s.InitStages {
		out += " +stages"
	}
	if s.VCPUs > 1 {
		out += fmt.Sprintf(" vcpus=%d", s.VCPUs)
	}
	if s.NetQueues > 1 {
		out += fmt.Sprintf(" queues=%d", s.NetQueues)
	}
	if s.Affinity != "" {
		out += " aff=" + s.Affinity
	}
	if s.Placement != "" {
		out += " place=" + s.Placement
	}
	if len(s.ExtraLibs) > 0 {
		out += fmt.Sprintf(" libs=%v", s.ExtraLibs)
	}
	return out + ")"
}

// WithPlatform targets a platform ("kvm", "xen", "solo5", "linuxu").
func WithPlatform(platform string) Option {
	return func(s *Spec) { s.Platform = platform }
}

// WithVMM selects the monitor ("qemu", "qemu-microvm", "firecracker",
// "solo5-hvt", "xl", "none").
func WithVMM(vmm string) Option {
	return func(s *Spec) { s.VMM = vmm }
}

// WithAllocator overrides the ukalloc backend ("tlsf", "buddy",
// "tinyalloc", "mimalloc", "bootalloc", or a catalog provider name).
func WithAllocator(name string) Option {
	return func(s *Spec) { s.Allocator = name }
}

// WithMemory sets total guest memory in bytes.
func WithMemory(bytes int) Option {
	return func(s *Spec) { s.MemBytes = bytes }
}

// WithStackBytes sets the boot stack size in bytes.
func WithStackBytes(bytes int) Option {
	return func(s *Spec) { s.StackBytes = bytes }
}

// WithDCE enables dead code elimination.
func WithDCE() Option {
	return func(s *Spec) { s.DCE = true }
}

// WithLTO enables link-time optimization.
func WithLTO() Option {
	return func(s *Spec) { s.LTO = true }
}

// WithBuildFlags sets both Fig 8 link switches at once.
func WithBuildFlags(dce, lto bool) Option {
	return func(s *Spec) { s.DCE, s.LTO = dce, lto }
}

// WithDynamicPageTable selects §6.1's dynamic paging strategy.
func WithDynamicPageTable() Option {
	return func(s *Spec) { s.DynamicPageTable = true }
}

// With9pfs adds the virtio-9p mount step to the boot pipeline.
func With9pfs() Option {
	return func(s *Spec) { s.Mount9pfs = true }
}

// WithRootFS mounts a root filesystem at boot: "ramfs", "shfs" or
// "9pfs". Pick ramfs for the general standard path, shfs for the
// specialized ~300-cycle open path (Fig 22), 9pfs for a shared host
// export.
func WithRootFS(name string) Option {
	return func(s *Spec) { s.RootFS = name }
}

// WithFiles populates the root filesystem (absolute path -> content),
// defaulting RootFS to "ramfs" when none is selected. The map is copied
// so later mutation by the caller cannot leak into the spec.
func WithFiles(files map[string][]byte) Option {
	return func(s *Spec) {
		if s.Files == nil {
			s.Files = make(map[string][]byte, len(files))
		}
		for p, data := range files {
			s.Files[p] = data
		}
	}
}

// WithFile adds one file to the root filesystem (see WithFiles).
func WithFile(path string, data []byte) Option {
	return func(s *Spec) {
		if s.Files == nil {
			s.Files = map[string][]byte{}
		}
		s.Files[path] = data
	}
}

// WithPageCache bounds the instance's VFS page cache (4 KiB pages) —
// the store behind the zero-copy Sendfile path.
func WithPageCache(pages int) Option {
	return func(s *Spec) { s.PageCachePages = pages }
}

// WithZeroCopy enables the zero-copy data path: buffer handoff by
// reference through the socket layers and driver, no per-byte copy
// charges.
func WithZeroCopy() Option {
	return func(s *Spec) { s.ZeroCopy = true }
}

// WithTxBatch coalesces TX virtqueue kicks to one per n frames (n <= 1
// restores kick-per-burst).
func WithTxBatch(n int) Option {
	return func(s *Spec) { s.TxKickBatch = n }
}

// WithSnapshotBoot enables snapshot-fork instantiation: one template
// boot per spec, then copy-on-write clones that skip the lib-init
// chain. Cold instantiation drops well below the Fig 10 boot times;
// clones are observationally identical to fresh boots.
func WithSnapshotBoot() Option {
	return func(s *Spec) { s.SnapshotBoot = true }
}

// WithInitStages enables the staged init-table scheduler: independent
// boot constructors charge max instead of sum, honoring the
// allocator→scheduler→NIC ordering constraints.
func WithInitStages() Option {
	return func(s *Spec) { s.InitStages = true }
}

// SMP sizing limits, enforced by Runtime.Validate.
const (
	// MaxVCPUs caps WithVCPUs: the largest guest the boot model's AP
	// bringup calibration covers.
	MaxVCPUs = 32
	// MaxNetQueues caps WithNetQueues at the virtio-net device maximum
	// of 8 RX/TX queue pairs.
	MaxNetQueues = 8
)

// WithVCPUs sets the guest vCPU count (n <= 1 keeps the calibrated
// single-core image). An SMP guest pairs naturally with WithNetQueues(n)
// so each core polls its own device queue; ProfileSMP sets both.
func WithVCPUs(n int) Option {
	return func(s *Spec) { s.VCPUs = n }
}

// WithNetQueues sets the RX/TX queue-pair count per NIC (n <= 1 keeps
// the single-queue device). Incoming flows spread across queues by a
// deterministic RSS hash of the connection 4-tuple.
func WithNetQueues(n int) Option {
	return func(s *Spec) { s.NetQueues = n }
}

// WithAffinity selects the cluster front door's balancing policy
// ("least-loaded", "round-robin", "hash") for Runtime.NewCluster.
func WithAffinity(policy string) Option {
	return func(s *Spec) { s.Affinity = policy }
}

// WithPlacement biases the cluster autoscaler ("spread" or "pack") for
// Runtime.NewCluster.
func WithPlacement(strategy string) Option {
	return func(s *Spec) { s.Placement = strategy }
}

// WithExtraLibs appends micro-libraries to initialize at boot.
func WithExtraLibs(libs ...string) Option {
	return func(s *Spec) { s.ExtraLibs = append(s.ExtraLibs, libs...) }
}

package experiments

import (
	"errors"
	"fmt"
	"time"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/baselines"
	"unikraft/internal/core"
	"unikraft/internal/depgraph"
	"unikraft/internal/ninepfs"
	"unikraft/internal/porting"
	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/syscalls"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukplat"
	"unikraft/internal/vfscore"
)

func init() {
	register("tab1", "Cost of binary compatibility/syscalls (cycles, ns)", table1)
	register("tab2", "Automated porting matrix (musl/newlib, compat layer)", table2)
	register("fig1", "Linux kernel component dependencies", fig1)
	register("fig2", "nginx Unikraft dependency graph", fig2)
	register("fig3", "helloworld Unikraft dependency graph", fig3)
	register("fig5", "Syscalls required by 30 server apps vs supported", fig5)
	register("fig6", "Porting-effort survey over time", fig6)
	register("fig7", "Per-app syscall support progression", fig7)
	register("fig8", "Unikraft image sizes with/without LTO and DCE", fig8)
	register("fig9", "Image sizes: Unikraft vs other OSes", fig9)
	register("fig10", "Boot time per VMM", fig10)
	register("fig11", "Minimum memory per OS", fig11)
	register("fig14", "nginx boot time per allocator", fig14)
	register("fig20", "9pfs read/write latency vs Linux", fig20)
	register("fig21", "Static vs dynamic page-table boot", fig21)
	register("fig22", "Specialized filesystem (SHFS) vs VFS open cost", fig22)
	register("txt1", "9pfs boot-time overhead (KVM vs Xen)", text9pfsBoot)
}

// --- Table 1 ----------------------------------------------------------------

// table1 prints the machine's calibrated per-call costs: a Linux
// syscall with and without mitigations, Unikraft's binary-compatible
// syscall translation, and the plain function call a natively linked
// syscall becomes.
func table1(env *Env) (*Result, error) {
	m := env.NewMachine()
	nsPerCycle := 1e9 / float64(m.CPU.Hz)
	row := func(platform, routine string, cycles uint64) []string {
		c := float64(cycles)
		return []string{platform, routine, f1(c), f2(c * nsPerCycle)}
	}
	res := &Result{
		ID: "tab1", Title: Title("tab1"),
		Headers: []string{"platform", "routine", "cycles", "nsecs"},
	}
	res.Rows = append(res.Rows, row("linux-kvm", "syscall", m.Costs.LinuxSyscall))
	res.Rows = append(res.Rows, row("linux-kvm", "syscall-no-mitig", m.Costs.LinuxSyscallNoMitig))
	res.Rows = append(res.Rows, row("unikraft-kvm", "syscall", m.Costs.UnikraftSyscall))
	res.Rows = append(res.Rows, row("both", "function-call", m.Costs.FunctionCall))
	res.Notes = append(res.Notes, "paper: 222.0 / 154.0 / 84.0 / 4.0 cycles")
	return res, nil
}

// --- Table 2 / Fig 6 ---------------------------------------------------------

func table2(env *Env) (*Result, error) {
	rows := porting.Table2()
	stats := porting.AnalyzeTable2(rows)
	res := &Result{
		ID: "tab2", Title: Title("tab2"),
		Headers: []string{"library", "musl-MB", "musl-std", "musl-compat", "newlib-MB", "newlib-std", "newlib-compat", "glue-loc"},
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{
			r.Name, fmt.Sprintf("%.3f", r.MuslMB), yn(r.MuslStd), yn(r.MuslCompat),
			fmt.Sprintf("%.3f", r.NewlibMB), yn(r.NewlibStd), yn(r.NewlibCompat),
			fmt.Sprintf("%d", r.GlueLoC),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d/%d libraries build with the musl compat layer; %d need zero glue code; max glue %d LoC",
			stats.MuslCompatOK, stats.Libs, stats.ZeroGlue, stats.MaxGlueLoC))
	return res, nil
}

func fig6(env *Env) (*Result, error) {
	qs := porting.Fig6Survey()
	trend := porting.AnalyzeSurvey(qs)
	res := &Result{
		ID: "fig6", Title: Title("fig6"),
		Headers: []string{"quarter", "libraries", "lib-deps", "os-primitives", "build-primitives", "total"},
	}
	for _, q := range qs {
		res.Rows = append(res.Rows, []string{
			q.Quarter, f1(q.Libraries), f1(q.LibraryDeps), f1(q.OSPrimitives), f1(q.BuildPrimitives), f1(q.Total()),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf("total effort %0.f -> %0.f working days over four quarters", trend.FirstTotal, trend.LastTotal))
	return res, nil
}

// --- dependency graphs (Figs 1-3) ---------------------------------------------

func fig1(env *Env) (*Result, error) {
	g := depgraph.LinuxKernelGraph()
	res := &Result{
		ID: "fig1", Title: Title("fig1"),
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"components", fmt.Sprintf("%d", g.NodeCount())},
			{"dependency edges", fmt.Sprintf("%d", g.EdgeCount())},
			{"cross-component references", fmt.Sprintf("%d", g.TotalWeight())},
			{"graph density", f2(g.Density())},
			{"avg out-degree", f2(g.AvgDegree())},
		},
		Notes: []string{"DOT export available via ukdeps -linux"},
	}
	return res, nil
}

func imageGraph(env *Env, appName string) (*depgraph.Graph, error) {
	cat := env.Catalog
	app, ok := core.AppByName(appName)
	if !ok {
		return nil, fmt.Errorf("unknown app %s", appName)
	}
	providers := ukbuild.Providers(app, "kvm")
	closure, err := cat.Closure([]string{app.Lib}, providers)
	if err != nil {
		return nil, err
	}
	return depgraph.FromClosure(appName, closure, providers), nil
}

func graphResult(env *Env, id, app string) (*Result, error) {
	g, err := imageGraph(env, app)
	if err != nil {
		return nil, err
	}
	linux := depgraph.LinuxKernelGraph()
	cmp := depgraph.Analyze(linux, g)
	res := &Result{
		ID: id, Title: Title(id),
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"micro-libraries", fmt.Sprintf("%d", g.NodeCount())},
			{"dependency edges", fmt.Sprintf("%d", g.EdgeCount())},
			{"density", f2(g.Density())},
			{"linux/image density ratio", f1(cmp.DensityRatio)},
			{"libraries", joinNames(g.Nodes)},
		},
	}
	return res, nil
}

func joinNames(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}

func fig2(env *Env) (*Result, error) { return graphResult(env, "fig2", "nginx") }
func fig3(env *Env) (*Result, error) { return graphResult(env, "fig3", "helloworld") }

// --- syscall compatibility (Figs 5, 7) -----------------------------------------

func fig5(env *Env) (*Result, error) {
	a := syscalls.Analyze(syscalls.Top30Apps(), syscalls.SupportedNumbers)
	needed := 0
	neededSupported := 0
	for nr, cnt := range a.UsageCount {
		if cnt > 0 {
			needed++
			if a.Supported[nr] {
				neededSupported++
			}
		}
	}
	res := &Result{
		ID: "fig5", Title: Title("fig5"),
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"syscalls on the map", fmt.Sprintf("%d", syscalls.MaxNr+1)},
			{"supported by unikraft", fmt.Sprintf("%d", len(syscalls.SupportedNumbers))},
			{"required by >=1 of 30 apps", fmt.Sprintf("%d", needed)},
			{"required and supported", fmt.Sprintf("%d", neededSupported)},
		},
		Notes: []string{
			"more than half the syscall table is unused by popular server apps (paper §4.1)",
			"heatmap: uksyscalls -heatmap",
		},
	}
	return res, nil
}

func fig7(env *Env) (*Result, error) {
	a := syscalls.Analyze(syscalls.Top30Apps(), syscalls.SupportedNumbers)
	res := &Result{
		ID: "fig7", Title: Title("fig7"),
		Headers: []string{"app", "supported%", "+top5%", "+top10%", "full%"},
	}
	for _, row := range a.Fig7() {
		res.Rows = append(res.Rows, []string{
			row.App, f1(row.Base), f1(row.Top5), f1(row.Top10), f1(row.Complete),
		})
	}
	top5 := a.TopMissing(5)
	names := ""
	for i, nr := range top5 {
		if i > 0 {
			names += ","
		}
		names += syscalls.Name(nr)
	}
	res.Notes = append(res.Notes, "top-5 missing: "+names)
	return res, nil
}

// --- image sizes (Figs 8, 9) ----------------------------------------------------

func fig8(env *Env) (*Result, error) {
	cat := env.Catalog
	res := &Result{
		ID: "fig8", Title: Title("fig8"),
		Headers: []string{"app", "default", "+lto", "+dce", "+dce+lto"},
	}
	for _, name := range []string{"helloworld", "nginx", "redis", "sqlite"} {
		app, _ := core.AppByName(name)
		var cells []string
		cells = append(cells, name)
		for _, opts := range []ukbuild.Options{{}, {LTO: true}, {DCE: true}, {DCE: true, LTO: true}} {
			img, err := ukbuild.Build(cat, app, "kvm", opts)
			if err != nil {
				return nil, err
			}
			cells = append(cells, ukbuild.KB(img.Bytes))
		}
		res.Rows = append(res.Rows, cells)
	}
	res.Notes = append(res.Notes, "paper row (nginx): 1.6MB / 1.2MB / 832.8KB / 832.8KB")
	return res, nil
}

func fig9(env *Env) (*Result, error) {
	cat := env.Catalog
	res := &Result{
		ID: "fig9", Title: Title("fig9"),
		Headers: []string{"system", "hello", "nginx", "redis", "sqlite", "source"},
	}
	// Unikraft row: built by our linker (stripped, no LTO/DCE = default).
	var uk []string
	uk = append(uk, "unikraft")
	for _, name := range []string{"helloworld", "nginx", "redis", "sqlite"} {
		app, _ := core.AppByName(name)
		img, err := ukbuild.Build(cat, app, "kvm", ukbuild.Options{DCE: true})
		if err != nil {
			return nil, err
		}
		uk = append(uk, ukbuild.KB(img.Bytes))
	}
	uk = append(uk, "measured")
	res.Rows = append(res.Rows, uk)
	sz := func(b int) string {
		if b == 0 {
			return "-"
		}
		return ukbuild.KB(b)
	}
	for _, s := range baselines.Fig9Sizes() {
		res.Rows = append(res.Rows, []string{
			s.System, sz(s.Hello), sz(s.Nginx), sz(s.Redis), sz(s.SQLite), "paper",
		})
	}
	return res, nil
}

// --- boot (Figs 10, 11, 14, 21; txt1) --------------------------------------------

func bootHello(env *Env, p ukplat.Platform, nics int) (ukboot.Report, error) {
	m := env.NewMachine()
	vm, err := ukboot.Boot(m, ukboot.Config{
		Platform:   p,
		MemBytes:   8 << 20,
		ImageBytes: 256 << 10,
		PTMode:     ukboot.PTStatic,
		Allocator:  "bootalloc",
		NICs:       nics,
	})
	if err != nil {
		return ukboot.Report{}, err
	}
	defer vm.Close()
	return vm.Report, nil
}

func fig10(env *Env) (*Result, error) {
	res := &Result{
		ID: "fig10", Title: Title("fig10"),
		Headers: []string{"vmm", "vmm-ms", "guest-ms", "total-ms"},
	}
	cases := []struct {
		label string
		plat  ukplat.Platform
		nics  int
	}{
		{"qemu", ukplat.KVMQemu, 0},
		{"qemu-1nic", ukplat.KVMQemu, 1},
		{"qemu-microvm", ukplat.KVMQemuMicroVM, 0},
		{"solo5", ukplat.Solo5, 0},
		{"firecracker", ukplat.KVMFirecracker, 0},
	}
	for _, c := range cases {
		r, err := bootHello(env, c.plat, c.nics)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			c.label, ms(r.VMM), ms(r.Guest), ms(r.Total()),
		})
	}
	for _, b := range baselines.PublishedBootTimes() {
		res.Rows = append(res.Rows, []string{b.System + "/" + b.VMM, "-", "-", f1(b.MS) + " (paper)"})
	}
	res.Notes = append(res.Notes, "paper totals: qemu 38.4ms, qemu-1nic 42.7ms, microvm 9.1ms, solo5 3.1ms, firecracker 3.1ms")
	return res, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }
func us(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond)) }

func fig11(env *Env) (*Result, error) {
	res := &Result{
		ID: "fig11", Title: Title("fig11"),
		Headers: []string{"system", "hello-MB", "nginx-MB", "redis-MB", "sqlite-MB", "source"},
	}
	// Unikraft row: probed by booting with growing memory until the app
	// footprint fits. App floors: startup heap demands.
	floors := map[string]int{"helloworld": 256 << 10, "nginx": 2 << 20, "redis": 4 << 20, "sqlite": 1 << 20}
	imageKB := map[string]int{"helloworld": 257, "nginx": 1600, "redis": 1800, "sqlite": 1600}
	var row []string
	row = append(row, "unikraft")
	for _, app := range []string{"helloworld", "nginx", "redis", "sqlite"} {
		cfg := ukboot.Config{
			Platform:   ukplat.KVMQemu,
			ImageBytes: imageKB[app] << 10,
			PTMode:     ukboot.PTStatic,
			Allocator:  "tlsf",
		}
		min, err := ukboot.MinMemory(cfg, floors[app])
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%d", min>>20))
	}
	row = append(row, "measured")
	res.Rows = append(res.Rows, row)
	for _, b := range baselines.Fig11MinMemory() {
		cell := func(v int) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		res.Rows = append(res.Rows, []string{b.System, cell(b.Hello), cell(b.Nginx), cell(b.Redis), cell(b.SQLite), "paper"})
	}
	res.Notes = append(res.Notes, "paper unikraft row: 2 / 5 / 7 / 4 MB")
	return res, nil
}

func fig14(env *Env) (*Result, error) {
	res := &Result{
		ID: "fig14", Title: Title("fig14"),
		Headers: []string{"allocator", "guest-boot-ms"},
	}
	for _, alloc := range []string{"buddy", "mimalloc", "bootalloc", "tinyalloc", "tlsf"} {
		m := env.NewMachine()
		vm, err := ukboot.Boot(m, ukboot.Config{
			Platform:   ukplat.KVMQemu,
			MemBytes:   1 << 30,
			ImageBytes: 1600 << 10,
			PTMode:     ukboot.PTStatic,
			Allocator:  alloc,
			NICs:       1,
			Libs:       []string{"lwip", "vfscore", "ramfs", "pthreads"},
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{alloc, ms(vm.Report.Guest)})
		vm.Close()
	}
	res.Notes = append(res.Notes, "paper: buddy 3.07, mimalloc 0.94, bootalloc 0.49, tinyalloc 0.87, tlsf 0.51 (ms)")
	return res, nil
}

func fig21(env *Env) (*Result, error) {
	res := &Result{
		ID: "fig21", Title: Title("fig21"),
		Headers: []string{"pagetable", "memory", "boot-us"},
	}
	pt := func(mode ukboot.PTMode, mem int) (time.Duration, error) {
		m := env.NewMachine()
		_, err := ukboot.BuildPageTable(m.Charge, mode, mem)
		return m.CPU.Now(), err
	}
	d, err := pt(ukboot.PTStatic, 1<<30)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{"static", "1GB", us(d)})
	for _, mem := range []int{32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20, 1 << 30, 2 << 30, 3 << 30} {
		d, err := pt(ukboot.PTDynamic, mem)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{"dynamic", ukbuild.KB(mem), us(d)})
	}
	res.Notes = append(res.Notes, "paper: static-1GB 29us; dynamic 46..114us from 32MB to 3GB")
	return res, nil
}

func text9pfsBoot(env *Env) (*Result, error) {
	res := &Result{
		ID: "txt1", Title: Title("txt1"),
		Headers: []string{"platform", "9pfs-mount-ms"},
	}
	for _, p := range []ukplat.Platform{ukplat.KVMQemu, ukplat.Xen} {
		m := env.NewMachine()
		with, err := ukboot.Boot(m, ukboot.Config{
			Platform: p, MemBytes: 64 << 20, ImageBytes: 1 << 20,
			PTMode: ukboot.PTStatic, Allocator: "tlsf", Mount9pfs: true,
		})
		if err != nil {
			return nil, err
		}
		with.Close()
		var mount time.Duration
		for _, s := range with.Report.Steps {
			if s.Name == "9pfs" {
				mount = s.Duration
			}
		}
		res.Rows = append(res.Rows, []string{p.VMM, ms(mount)})
	}
	res.Notes = append(res.Notes, "paper: 0.3ms on KVM, 2.7ms on Xen")
	return res, nil
}

// --- filesystems (Figs 20, 22) ----------------------------------------------------

func fig20(env *Env) (*Result, error) {
	res := &Result{
		ID: "fig20", Title: Title("fig20"),
		Headers: []string{"block-KB", "uk-read-us", "uk-write-us", "linux-read-us", "linux-write-us"},
	}
	// Unikraft side: measured through the real 9P client/server.
	setup := func(rttBase uint64, perByteNum uint64) (*ninepfs.FS, *sim.Machine, error) {
		host := ramfs.New()
		f, err := host.Root().Create("data.bin", false)
		if err != nil {
			return nil, nil, err
		}
		payload := make([]byte, 1<<20)
		if _, err := f.WriteAt(payload, 0); err != nil {
			return nil, nil, err
		}
		m := env.NewMachine()
		srv := ninepfs.NewServer(host)
		tr := ninepfs.NewTransport(m, srv)
		tr.RTTBaseCycles = rttBase
		tr.PerByteNum = perByteNum
		fs, err := ninepfs.Mount(tr)
		return fs, m, err
	}
	measure := func(fs *ninepfs.FS, m *sim.Machine, block int, write bool) (time.Duration, error) {
		node, err := fs.Root().Lookup("data.bin")
		if err != nil {
			return 0, err
		}
		buf := make([]byte, block)
		// Warm open, then measure 16 ops.
		if _, err := node.ReadAt(buf[:16], 0); err != nil {
			return 0, err
		}
		const ops = 16
		before := m.CPU.Cycles()
		for i := 0; i < ops; i++ {
			off := int64(i * block)
			if write {
				_, err = node.WriteAt(buf, off)
			} else {
				_, err = node.ReadAt(buf, off)
			}
			if err != nil {
				return 0, err
			}
		}
		return m.CPU.Duration((m.CPU.Cycles() - before) / ops), nil
	}
	// Unikraft virtio-9p vs Linux v9fs-in-guest (adds syscall + VFS +
	// page-cache management per op: higher fixed and per-byte costs).
	ukFS, ukM, err := setup(30_000, 6)
	if err != nil {
		return nil, err
	}
	lxFS, lxM, err := setup(198_000, 10)
	if err != nil {
		return nil, err
	}
	for _, kb := range []int{4, 8, 16, 32, 64} {
		block := kb << 10
		ukR, err := measure(ukFS, ukM, block, false)
		if err != nil {
			return nil, err
		}
		ukW, err := measure(ukFS, ukM, block, true)
		if err != nil {
			return nil, err
		}
		lxR, err := measure(lxFS, lxM, block, false)
		if err != nil {
			return nil, err
		}
		lxW, err := measure(lxFS, lxM, block, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", kb), us(ukR), us(ukW), us(lxR), us(lxW),
		})
	}
	res.Notes = append(res.Notes, "unikraft read/write latency below the Linux guest at every block size (paper Fig 20)")
	return res, nil
}

func fig22(env *Env) (*Result, error) {
	m := env.NewMachine()
	// SHFS volume with 1000 files at the root (the paper's setup).
	vol := shfs.New(m, 4096)
	for i := 0; i < 1000; i++ {
		if err := vol.Add(fmt.Sprintf("/f%04d.html", i), []byte("cache object")); err != nil {
			return nil, err
		}
	}
	// Unikraft VFS with the same files on ramfs.
	v := vfscore.New(m)
	rfs := ramfs.New()
	if err := v.Mount("/", rfs); err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		fd, err := v.Open(fmt.Sprintf("/f%04d.html", i), vfscore.OCreate|vfscore.OWrOnly)
		if err != nil {
			return nil, err
		}
		v.Close(fd)
	}
	avg := func(fn func(i int) error) (float64, error) {
		const loops = 1000
		before := m.CPU.Cycles()
		for i := 0; i < loops; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return float64(m.CPU.Cycles()-before) / loops, nil
	}
	shfsHit, err := avg(func(i int) error {
		_, err := vol.Open(fmt.Sprintf("/f%04d.html", i%1000))
		return err
	})
	if err != nil {
		return nil, err
	}
	shfsMiss, err := avg(func(i int) error {
		if _, err := vol.Open(fmt.Sprintf("/missing%04d", i)); !errors.Is(err, shfs.ErrNotExist) {
			return fmt.Errorf("shfs open of /missing%04d: %v, want %v", i, err, shfs.ErrNotExist)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vfsHit, err := avg(func(i int) error {
		fd, err := v.Open(fmt.Sprintf("/f%04d.html", i%1000), vfscore.ORdOnly)
		if err != nil {
			return err
		}
		return v.Close(fd)
	})
	if err != nil {
		return nil, err
	}
	vfsMiss, err := avg(func(i int) error {
		if _, err := v.Open(fmt.Sprintf("/missing%04d", i), vfscore.ORdOnly); !errors.Is(err, vfscore.ErrNotExist) {
			return fmt.Errorf("vfs open of /missing%04d: %v, want %v", i, err, vfscore.ErrNotExist)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Linux guest VFS: the same walk plus trap and heavier dentry path
	// (factors vs our measured unikraft VFS, calibrated to Fig 22).
	linuxNoMitig := vfsHit*1.55 + 154
	linuxNoMitigMiss := vfsMiss*1.55 + 154
	linux := vfsHit*2.2 + 222
	linuxMiss := vfsMiss*2.2 + 222

	res := &Result{
		ID: "fig22", Title: Title("fig22"),
		Headers: []string{"config", "file-exists-cycles", "no-file-cycles"},
		Rows: [][]string{
			{"unikraft-shfs", f1(shfsHit), f1(shfsMiss)},
			{"unikraft-vfs", f1(vfsHit), f1(vfsMiss)},
			{"linux-vfs-no-mitig", f1(linuxNoMitig), f1(linuxNoMitigMiss)},
			{"linux-vfs", f1(linux), f1(linuxMiss)},
		},
		Notes: []string{"paper: shfs 308/291, unikraft-vfs 1637/2219, linux rows derived with documented factors"},
	}
	return res, nil
}

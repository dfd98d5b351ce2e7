package experiments

import (
	"fmt"
	"time"

	"unikraft/internal/apps/httpd"
	"unikraft/internal/closedloop"
	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/ukboot"
	"unikraft/internal/uknetdev"
	"unikraft/internal/ukpool"
	"unikraft/internal/vfscore"
)

func init() {
	register("fileserve", "Static-file serving: SHFS vs vfscore backends, zero-copy sendfile, page cache", fileserve)
}

// fileserve wires the filesystem stack into the serving datapath and
// measures it end to end, closing the gap between the storage
// micro-benchmarks (Fig 20's 9pfs latency, Fig 22's SHFS-vs-VFS open
// cost) and served traffic:
//
//   - a wrk-style world (client + server stacks over virtio) serving a
//     mixed static site through httpd's file backends, sweeping the
//     copying read path against zero-copy sendfile (page cache + pooled
//     netbuf handoff, the PR 3 datapath extended to file pages) and the
//     specialized SHFS volume against vfscore+ramfs;
//   - warm-pool traces (1M requests, steady and bursty) over a
//     snapshot-forked file-serving fleet whose clones share the
//     template's populated tree copy-on-write, each request driving the
//     instance's own VFS (open/sendfile/close).
//
// The end-to-end SHFS/vfscore open-cost ratio must hold Fig 22's ~5x
// band, and the zero-copy sendfile path must beat the copying file
// path by >= 1.3x — both asserted by TestFileserveShape and gated in
// CI via BENCH_baseline.json.
func fileserve(env *Env) (*Result, error) {
	files, mix := fileSite()

	res := &Result{
		ID: "fileserve", Title: Title("fileserve"),
		Headers: []string{"backend", "datapath", "trace", "requests",
			"req/s", "speedup", "warm-hit", "cache-hit", "open-cycles"},
	}

	// --- world rows: the wrk-style sweep ------------------------------------
	var base, sendfileRate float64
	var vfsOpen, shfsOpen float64
	var worldCacheHit float64
	for i, r := range fileWorldRows {
		m, err := fileRate(env, r.cfg, files, mix, worldReqs)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.backend, r.datapath, err)
		}
		if i == 0 {
			base = m.Rate
			vfsOpen = m.openCycles
		}
		if r.backend == "vfscore" && r.datapath == "sendfile-zc" {
			sendfileRate = m.Rate
		}
		if r.backend == "shfs" {
			shfsOpen = m.openCycles
		}
		cacheHit := "-"
		if r.cfg.cachePages > 0 {
			worldCacheHit = m.cacheHit
			cacheHit = fmt.Sprintf("%.2f%%", 100*m.cacheHit)
		}
		res.Rows = append(res.Rows, []string{
			r.backend, r.datapath, "wrk-mix", fmt.Sprintf("%d", worldReqs),
			krps(m.Rate) + "/s", fmt.Sprintf("%.2fx", m.Rate/base),
			"-", cacheHit, f1(m.openCycles),
		})
	}

	// --- pool rows: 1M-request traces over a forked file-serving fleet -----
	poolRows := []struct {
		backend string
		trace   string
	}{
		{"vfscore", "poisson-steady-1M"},
		{"shfs", "poisson-steady-1M"},
		{"vfscore", "bursty-5x-1M"},
	}
	for _, pr := range poolRows {
		rep, cacheHit, err := filePool(env, pr.backend, pr.trace, files, mix)
		if err != nil {
			return nil, fmt.Errorf("pool %s/%s: %w", pr.backend, pr.trace, err)
		}
		ch := "-"
		if pr.backend == "vfscore" {
			ch = fmt.Sprintf("%.2f%%", 100*cacheHit)
		}
		res.Rows = append(res.Rows, []string{
			pr.backend, "sendfile-zc", pr.trace, fmt.Sprintf("%d", rep.Requests),
			krps(rep.Throughput()) + "/s", "-",
			fmt.Sprintf("%.2f%%", 100*rep.WarmHitRatio()), ch, "-",
		})
	}

	ratio := vfsOpen / shfsOpen
	sendfileGain := 0.0
	if base > 0 {
		sendfileGain = sendfileRate / base
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("end-to-end open cost: vfscore %.0f vs shfs %.0f cycles = %.1fx (Fig 22 band ~5x; paper 1637/308 = 5.3x)",
			vfsOpen, shfsOpen, ratio),
		fmt.Sprintf("zero-copy sendfile vs copying file path: %.2fx (CI bar >= 1.3x); page-cache hit ratio %.1f%% on the wrk mix",
			sendfileGain, 100*worldCacheHit),
		"pool fleets fork from one template: clones serve the shared site tree copy-on-write (ramfs+CowFS) or through read-only SHFS views")
	return res, nil
}

// worldReqs is how many requests each world row serves.
const worldReqs = 3000

// fileWorldRows are the wrk-style sweep's configurations.
var fileWorldRows = []struct {
	backend, datapath string
	cfg               fileWorldConfig
}{
	// The copying row is the baseline: copying socket path, no kick
	// batching, response assembled via a copying read — exactly the
	// fig13 datapath pointed at files.
	{"vfscore", "copy", fileWorldConfig{}},
	// The sendfile rows ride the zero-copy datapath: page cache +
	// sendfile on the file side, zero-copy socket handoff + batched
	// kicks on the wire side.
	{"vfscore", "sendfile-zc", fileWorldConfig{sendfile: true, cachePages: 512,
		dp: closedloop.Config{ZeroCopy: true, Tuning: uknetdev.Tuning{TxKickBatch: 8}}}},
	{"shfs", "sendfile-zc", fileWorldConfig{backend: "shfs", sendfile: true,
		dp: closedloop.Config{ZeroCopy: true, Tuning: uknetdev.Tuning{TxKickBatch: 8}}}},
}

// fileSite builds the deterministic static site and its request mix: a
// 612-byte index (the Fig 13 page), 4 KiB pages, 16 KiB images and
// 64 KiB blobs, with the mix weighted toward small files and one
// missing path to exercise the 404 path.
func fileSite() (map[string][]byte, []string) {
	files := map[string][]byte{"/index.html": httpd.DefaultPage}
	content := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + (i+seed)%26)
		}
		return b
	}
	var mix []string
	for i := 0; i < 12; i++ {
		mix = append(mix, "/index.html")
	}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/page%02d.html", i)
		files[p] = content(4096, i)
		mix = append(mix, p)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/img%02d.dat", i)
		files[p] = content(16384, 100+i)
		if i < 4 {
			mix = append(mix, p)
		}
	}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/pkg%02d.bin", i)
		files[p] = content(65536, 200+i)
	}
	mix = append(mix, "/pkg00.bin", "/missing.html")
	return files, mix
}

// fileWorldConfig selects one world-row configuration.
type fileWorldConfig struct {
	dp         closedloop.Config // datapath: ZeroCopy and Tuning
	backend    string            // "" = vfscore+ramfs, "shfs" = the hash volume
	sendfile   bool
	cachePages int
}

// fileMetrics is what one world run measures.
type fileMetrics struct {
	closedloop.Measure
	cacheHit   float64
	openCycles float64 // end-to-end open+close through the backend
}

// fileRate serves `requests` of the mix through httpd's file backend on
// the one-core closed-loop world and measures the server's sustainable
// rate, then prices the backend's open path end to end (the Fig 22
// measurement, now through the serving stack's own backend objects).
func fileRate(env *Env, fc fileWorldConfig, files map[string][]byte, mix []string, requests int) (fileMetrics, error) {
	var met fileMetrics
	w, err := closedloop.New(env.NewMachine, oneCore(fc.dp, "tlsf"))
	if err != nil {
		return met, err
	}
	sm := w.Shards[0].Machine()

	var backend httpd.FileBackend
	var vfs *vfscore.VFS
	if fc.backend == "shfs" {
		vol := shfs.New(sm, 2*len(files))
		for _, p := range ukboot.SortedFilePaths(files) {
			if err := vol.Add(p, files[p]); err != nil {
				return met, err
			}
		}
		vol.Seal()
		backend = &httpd.SHFSFiles{Vol: vol}
	} else {
		rfs := ramfs.New()
		if err := ukboot.PopulateRamfs(rfs, files); err != nil {
			return met, err
		}
		vfs = vfscore.New(sm)
		if err := vfs.Mount("/", rfs); err != nil {
			return met, err
		}
		if fc.cachePages > 0 {
			vfs.EnablePageCache(fc.cachePages)
		}
		backend = &httpd.VFSFiles{VFS: vfs}
	}

	srv, err := httpd.NewFileServer(w.Shards[0], w.Allocs.Shard(0), 80, backend, fc.sendfile)
	if err != nil {
		return met, err
	}
	w.Apps = []closedloop.App{srv}
	gen := httpd.NewLoadGen(w.Client, closedloop.ServerAddr(80), paperConns)
	gen.SetPaths(mix)
	if err := w.Connect(gen); err != nil {
		return met, err
	}
	if met.Measure, err = w.Run(gen, 1, requests); err != nil {
		return met, err
	}
	if vfs != nil {
		met.cacheHit = vfs.CacheStats().HitRatio()
	}

	// End-to-end open cost through the serving backend (after the run:
	// the rate above is already banked).
	paths := ukboot.SortedFilePaths(files)
	const loops = 1000
	openStart := sm.CPU.Cycles()
	for i := 0; i < loops; i++ {
		h, _, err := backend.Open(paths[i%len(paths)])
		if err != nil {
			return met, err
		}
		h.Close()
	}
	met.openCycles = float64(sm.CPU.Cycles()-openStart) / loops
	return met, nil
}

// filePool replays one 1M-request trace through a warm pool whose
// instances boot a populated root filesystem and serve a real
// open/sendfile/close per request against it. The fleet instantiates
// by snapshot-fork: every clone shares the template's site tree
// copy-on-write (ramfs) or through a sealed read-only view (shfs).
func filePool(env *Env, backend, trace string, files map[string][]byte, mix []string) (*ukpool.Report, float64, error) {
	cfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return nil, 0, err
	}
	cfg.MemBytes = 16 << 20 // room for the site tree
	cfg.SnapshotBoot = true
	cfg.RootFS = ukboot.RootRamfs
	cfg.Files = files
	if backend == "shfs" {
		cfg.RootFS = ukboot.RootSHFS
	} else {
		cfg.PageCachePages = 256
	}
	ctx, err := ukboot.NewContext(cfg)
	if err != nil {
		return nil, 0, err
	}
	// Per-request instance work: resolve one path of the mix through
	// the instance's own filesystem view. seen collects the fleet's
	// VFS views for the cache-hit aggregate (RequestWork runs on the
	// serve loop's goroutine — no locking needed).
	seen := map[*vfscore.VFS]bool{}
	work := func(vm *ukboot.VM, seq int) {
		path := mix[seq%len(mix)]
		if vm.SHFS != nil {
			h, err := vm.SHFS.Open(path)
			if err != nil {
				return // miss: the 404 path
			}
			size, _ := vm.SHFS.Size(h)
			for off := int64(0); off < size; off += 4096 {
				vm.SHFS.ReadSlice(h, off, 4096)
			}
			vm.SHFS.Close(h)
			return
		}
		seen[vm.VFS] = true
		fd, err := vm.VFS.Open(path, vfscore.ORdOnly)
		if err != nil {
			return
		}
		vm.VFS.Sendfile(fd, 0, -1, func([]byte) error { return nil })
		vm.VFS.Close(fd)
	}

	pool, err := ukpool.New(ctx, 0, true,
		ukpool.Config{MinWarm: 8, MaxInstances: 256, ZeroCopy: true, RequestWork: work})
	if err != nil {
		return nil, 0, err
	}
	defer pool.Close()

	var w ukpool.Workload
	switch trace {
	case "poisson-steady-1M":
		w = ukpool.NewPoisson(1, 250_000, 1_000_000, 256)
	case "bursty-5x-1M":
		w = ukpool.NewBursty(2, 50_000, 250_000, 200*time.Millisecond, 0.4, 1_000_000, 256)
	default:
		return nil, 0, fmt.Errorf("unknown trace %q", trace)
	}
	rep, err := pool.Serve(w)
	if err != nil {
		return nil, 0, err
	}
	var hits, misses uint64
	for v := range seen {
		st := v.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	cacheHit := 0.0
	if hits+misses > 0 {
		cacheHit = float64(hits) / float64(hits+misses)
	}
	return rep, cacheHit, nil
}

package main

import (
	"fmt"

	"unikraft"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/apps/kvstore"
	"unikraft/internal/apps/sqldb"
	"unikraft/internal/apps/udpkv"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

const closedConns = 30

// --- http-wrk ---------------------------------------------------------------

// runHTTPWrk: nginx on firecracker with TLSF, 30 keep-alive connections
// fetching the 612-byte page one request at a time over copying
// sockets — the paper's Fig 13 configuration.
func runHTTPWrk(r *rep) error {
	spec := specFor("nginx", unikraft.WithVMM("firecracker"), unikraft.WithAllocator("tlsf"))
	w, err := newTCPWorld(r, spec, uknetdev.VhostNet)
	if err != nil {
		return err
	}
	defer w.inst.Close()
	srv, err := httpd.New(w.server, w.heap, 80, nil)
	if err != nil {
		return err
	}
	page := httpd.DefaultPage
	targets := []httpTarget{{path: "/index.html", status: 200, size: len(page), sum: sum64(page)}}
	n := r.n(60_000)
	gen, err := newHTTPGen(w.client, netstack.AddrPort{Addr: serverIP, Port: 80}, w.sm.CPU, closedConns,
		targets, newRNG(r.seed, "http-wrk"), make([]int, n), &r.out.digest)
	if err != nil {
		return err
	}
	w.pump(r.tr, srv.Poll, gen.collect)
	if !gen.ready() {
		return fmt.Errorf("http client: connections not established")
	}

	w.mark()
	t := beginTimed(r, w.sm.CPU)
	idle, err := w.drive(r.tr, n, gen.fire, srv.Poll, gen.collect, func() int { return gen.completed })
	t.end()
	if err != nil {
		return err
	}
	gen.failures += int(srv.Errors)
	if err := t.finish(w.guest, spec, gen.completed, gen.failures, idle, gen.lat.vals); err != nil {
		return err
	}
	if r.tr != nil {
		w.netLayers(r.out.layer, gen.completed)
	}
	return nil
}

// --- kv-pipe16 --------------------------------------------------------------

// runKVPipe16: redis with mimalloc, 30 connections pipelining 16
// commands, 90% GET / 10% SET, Zipf(0.99) over ~10K keys sharded per
// connection, values of 32–512 bytes.
func runKVPipe16(r *rep) error {
	const (
		depth       = 16
		keysPerConn = 10_000 / closedConns
	)
	spec := specFor("redis", unikraft.WithAllocator("mimalloc"))
	w, err := newTCPWorld(r, spec, uknetdev.VhostNet)
	if err != nil {
		return err
	}
	defer w.inst.Close()
	srv, err := kvstore.New(w.server, w.heap, 6379)
	if err != nil {
		return err
	}
	n := r.n(200_000)
	gen, err := newRESPGen(w.client, netstack.AddrPort{Addr: serverIP, Port: 6379}, w.sm.CPU,
		closedConns, depth, keysPerConn, n, 0.10, r.seed, &r.out.digest)
	if err != nil {
		return err
	}
	w.pump(r.tr, srv.Poll, func() int { return gen.collect(false) })
	if !gen.ready() {
		return fmt.Errorf("resp client: connections not established")
	}
	// Preload every key, so GETs hit and the allocator holds the live
	// set before the clock starts.
	gen.planPreload()
	if _, err := w.drive(r.tr, closedConns*keysPerConn, gen.fire, srv.Poll,
		func() int { return gen.collect(false) }, func() int { return gen.completed }); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	gen.planMain()

	w.mark()
	t := beginTimed(r, w.sm.CPU)
	idle, err := w.drive(r.tr, n, gen.fire, srv.Poll,
		func() int { return gen.collect(true) }, func() int { return gen.completed })
	t.end()
	if err != nil {
		return err
	}
	gen.failures += int(srv.Errors)
	if err := t.finish(w.guest, spec, gen.completed, gen.failures, idle, gen.lat.vals); err != nil {
		return err
	}
	if r.tr != nil {
		w.netLayers(r.out.layer, gen.completed)
	}
	return nil
}

// --- files-mix --------------------------------------------------------------

// fileSite is the static site files-mix serves: the 612-byte index,
// 4 KB pages, 16 KB images and 64 KB packages, and one path that does
// not exist. Paths are listed from most to least popular; contents are
// the seed's.
func fileSite(seed uint64) (map[string][]byte, []httpTarget) {
	r := newRNG(seed, "files.content")
	files := map[string][]byte{}
	var targets []httpTarget
	add := func(path string, size int) {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(' ' + r.intn(95))
		}
		files[path] = b
		targets = append(targets, httpTarget{path: path, status: 200, size: size, sum: sum64(b)})
	}
	add("/index.html", 612)
	for i := 0; i < 24; i++ {
		add(fmt.Sprintf("/page%02d.html", i), 4096)
		switch {
		case i%3 == 2: // an image for every third page
			add(fmt.Sprintf("/img%02d.dat", i/3), 16384)
		case i == 4:
			targets = append(targets, httpTarget{path: "/missing.html", status: 404})
		case i%6 == 0: // and the occasional package
			add(fmt.Sprintf("/pkg%02d.bin", i/6), 65536)
		}
	}
	return files, targets
}

// runFilesMix: the nginx file server over vfscore+ramfs with sendfile,
// zero-copy sockets and coalesced kicks, the site requested
// Zipf-weighted through a page cache smaller than the hot set.
func runFilesMix(r *rep) error {
	files, targets := fileSite(r.seed)
	spec := specFor("nginx", unikraft.WithVMM("firecracker"), unikraft.WithAllocator("tlsf"),
		unikraft.WithRootFS("ramfs"), unikraft.WithFiles(files), unikraft.WithPageCache(32),
		unikraft.WithZeroCopy(), unikraft.WithTxBatch(8))
	w, err := newTCPWorld(r, spec, uknetdev.VhostNet)
	if err != nil {
		return err
	}
	defer w.inst.Close()
	vfs := w.inst.VM.VFS
	if vfs == nil {
		return fmt.Errorf("booted guest has no VFS")
	}
	var backend httpd.FileBackend = &httpd.VFSFiles{VFS: vfs}
	var tfiles *tracedFiles
	if r.tr != nil {
		tfiles = &tracedFiles{FileBackend: backend, tr: r.tr}
		backend = tfiles
	}
	srv, err := httpd.NewFileServer(w.server, w.heap, 80, backend, true)
	if err != nil {
		return err
	}
	n := r.n(8_000)
	mix := newZipf(len(targets), 0.99).deal(newRNG(r.seed, "files.mix"), n)
	gen, err := newHTTPGen(w.client, netstack.AddrPort{Addr: serverIP, Port: 80}, w.sm.CPU, closedConns,
		targets, newRNG(r.seed, "files.headers"), mix, &r.out.digest)
	if err != nil {
		return err
	}
	w.pump(r.tr, srv.Poll, gen.collect)
	if !gen.ready() {
		return fmt.Errorf("http client: connections not established")
	}

	w.mark()
	cache0 := vfs.CacheStats()
	t := beginTimed(r, w.sm.CPU)
	idle, err := w.drive(r.tr, n, gen.fire, srv.Poll, gen.collect, func() int { return gen.completed })
	t.end()
	if err != nil {
		return err
	}
	gen.failures += int(srv.Errors)
	if err := t.finish(w.guest, spec, gen.completed, gen.failures, idle, gen.lat.vals); err != nil {
		return err
	}
	if r.tr != nil {
		out := r.out.layer
		w.netLayers(out, gen.completed)
		cache := vfs.CacheStats()
		if d := cache.Hits + cache.Misses - cache0.Hits - cache0.Misses; d > 0 {
			out["vfscore.cache_hit_frac"] = float64(cache.Hits-cache0.Hits) / float64(d)
		}
		out["vfscore.opens_per_req"] = float64(tfiles.opens) / float64(gen.completed)
		out["vfscore.not_found_frac"] = float64(tfiles.notFound) / float64(tfiles.opens)
		if ok := tfiles.opens - tfiles.notFound; ok > 0 {
			out["vfscore.sim_open_cycles"] = float64(tfiles.openCycles+tfiles.closeCycles) / float64(ok)
		}
	}
	return nil
}

// --- udp-raw ----------------------------------------------------------------

// runUDPRaw: the specialised key-value store of Table 4, coded against
// uknetdev in polling mode on vhost-user — no netstack, no sockets and
// no allocator on the server.
func runUDPRaw(r *rep) error {
	const keys = 4096
	spec := specFor("udpkv", unikraft.WithVMM("firecracker"))
	g, err := bootGuest(r, spec)
	if err != nil {
		return err
	}
	defer g.inst.Close()
	sm := g.inst.VM.Machine
	cm := sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
	if err != nil {
		return err
	}
	client := netstack.New(cm, cd, netstack.Config{Addr: clientIP, Name: "client"})
	srv := udpkv.NewRawServer(sd, serverIP, 5000, udpkv.NewStore())
	n := r.n(600_000)
	gen, err := newUDPGen(client, netstack.AddrPort{Addr: serverIP, Port: 5000}, sm.CPU,
		keys, n, 32, 0.05, r.seed, &r.out.digest)
	if err != nil {
		return err
	}
	tr := r.tr
	round := func(record bool) {
		tr.enter(lClient, "client.Poll")
		client.Poll()
		tr.exit()
		// RawServer takes the concrete device, so the driver's cycles
		// cannot be told from the application's here.
		tr.enter(lApps, "RawServer.Poll")
		srv.Poll()
		tr.exit()
		tr.enter(lClient, "client.Collect")
		client.Poll()
		gen.collect(record)
		tr.exit()
	}
	for k := 0; k < keys; {
		k = gen.preload(k)
		round(false)
		round(false) // the first burst also resolves ARP
	}
	if gen.completed != keys || gen.failures != 0 {
		return fmt.Errorf("preload: %d of %d keys stored, %d failures", gen.completed, keys, gen.failures)
	}
	gen.completed = 0

	dev0 := sd.Stats()
	t := beginTimed(r, sm.CPU)
	for gen.completed < n {
		before := gen.completed
		tr.setReq(before)
		tr.enter(lClient, "client.Fire")
		gen.fire()
		tr.exit()
		round(true)
		if gen.completed == before {
			t.end()
			return fmt.Errorf("no progress after %d requests", gen.completed)
		}
	}
	t.end()
	gen.failures += int(srv.Dropped)
	if err := t.finish(g, spec, gen.completed, gen.failures, 0, gen.lat.vals); err != nil {
		return err
	}
	if r.tr != nil {
		deviceLayer(r.out.layer, dev0, sd.Stats(), float64(gen.completed))
	}
	return nil
}

// --- sql-mixed --------------------------------------------------------------

// sqlStatementCycles is the per-statement interpretation cost (bytecode
// dispatch, journal bookkeeping) the repository's SQLite experiments
// charge from their harness; sqldb itself prices only its allocator
// traffic. The benchmark charges the same figure, to the apps layer.
const sqlStatementCycles = 9000

// runSQLMixed: sqlite with TLSF and no network — bulk inserts, then
// point selects, deletes and re-inserts, every result row checked.
func runSQLMixed(r *rep) error {
	spec := specFor("sqlite", unikraft.WithAllocator("tlsf"))
	g, err := bootGuest(r, spec)
	if err != nil {
		return err
	}
	defer g.inst.Close()
	m := g.inst.VM.Machine
	heap := g.inst.VM.Heap
	var talloc *tracedAlloc
	if r.tr != nil {
		talloc = &tracedAlloc{Allocator: heap, tr: r.tr}
		heap = talloc
	}
	plan := newSQLPlan(r.seed, r.n(40_000), r.n(8_000), r.n(2_000), &r.out.digest)
	db := sqldb.New(heap)
	failures := 0
	exec := func(s *sqlStmt) error {
		r.tr.enter(lApps, "DB.Exec")
		m.Charge(sqlStatementCycles)
		res, err := db.Exec(s.text)
		r.tr.exit()
		if err != nil {
			return fmt.Errorf("%q: %w", s.text, err)
		}
		if !s.matches(res) {
			failures++
		}
		return nil
	}
	for i := range plan.setup {
		if err := exec(&plan.setup[i]); err != nil {
			return err
		}
	}

	heap0 := heap.Stats()
	if talloc != nil {
		talloc.bytes = 0
	}
	lat := latRec{cpu: m.CPU, vals: make([]uint32, 0, len(plan.stream))}
	t := beginTimed(r, m.CPU)
	for i := range plan.stream {
		r.tr.setReq(i)
		stamp := m.CPU.Cycles()
		if err := exec(&plan.stream[i]); err != nil {
			t.end()
			return err
		}
		lat.since(stamp)
	}
	t.end()
	for _, table := range []string{"big", "hot"} {
		if err := db.ValidateTable(table); err != nil {
			failures++
		}
	}
	if err := t.finish(g, spec, len(plan.stream), failures, 0, lat.vals); err != nil {
		return err
	}
	if r.tr != nil {
		allocLayer(r.out.layer, heap0, heap.Stats(), talloc, float64(len(plan.stream)))
	}
	return nil
}

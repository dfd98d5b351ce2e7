// Fileserver: mount a populated root filesystem per Spec (ramfs through
// vfscore vs the specialized SHFS volume), serve a small static site
// through the HTTP server's file backends, and print per-backend
// throughput — the Fig 22 open-cost gap driven end to end through the
// serving datapath, plus the zero-copy sendfile path against the
// copying read. `go run ./cmd/ukbench fileserve` is the full
// experiment; this is the minimal runnable walkthrough.
package main

import (
	"fmt"
	"log"

	"unikraft"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/uknetdev"
	"unikraft/internal/vfscore"
)

// site is the content both backends serve.
func site() map[string][]byte {
	files := map[string][]byte{"/index.html": httpd.DefaultPage}
	for i := 0; i < 8; i++ {
		page := make([]byte, 4096)
		for j := range page {
			page[j] = byte('a' + (i+j)%26)
		}
		files[fmt.Sprintf("/page%d.html", i)] = page
	}
	return files
}

// bootFS builds and boots a spec whose VMs own a live filesystem, and
// shows what the boot pipeline mounted.
func bootFS(rt *unikraft.Runtime, rootfs string) {
	spec := unikraft.NewSpec("nginx",
		unikraft.WithRootFS(rootfs),
		unikraft.WithFiles(site()),
		unikraft.WithDCE(), unikraft.WithLTO())
	if rootfs != "shfs" {
		spec = spec.With(unikraft.WithPageCache(256))
	}
	inst, err := rt.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Close()
	switch {
	case inst.VM.SHFS != nil:
		fmt.Printf("  %-6s boot=%-12v volume: %d objects, sealed=%v\n",
			rootfs, inst.VM.Report.Guest, inst.VM.SHFS.Count(), inst.VM.SHFS.Sealed())
	case inst.VM.VFS != nil:
		st, _ := inst.VM.VFS.StatPath("/index.html")
		fmt.Printf("  %-6s boot=%-12v /index.html: %d bytes via %s\n",
			rootfs, inst.VM.Report.Guest, st.Size, inst.VM.RootFS.FSName())
	}
}

// serve measures one backend/datapath configuration: requests of a
// small file mix through the HTTP file server over a virtio pair.
func serve(backendName string, sendfile bool, requests int) (float64, error) {
	clientM, serverM := sim.NewMachine(), sim.NewMachine()
	tuning := uknetdev.Tuning{}
	if sendfile {
		tuning.TxKickBatch = 8
	}
	clientDev, serverDev, err := uknetdev.NewTunedPair(clientM, serverM, uknetdev.VhostNet, tuning)
	if err != nil {
		return 0, err
	}
	client := netstack.New(clientM, clientDev, netstack.Config{Addr: netstack.IP(10, 0, 0, 1), ZeroCopy: sendfile})
	server := netstack.New(serverM, serverDev, netstack.Config{Addr: netstack.IP(10, 0, 0, 2), ZeroCopy: sendfile})
	alloc, err := ukalloc.NewInitialized("tlsf", serverM, 64<<20)
	if err != nil {
		return 0, err
	}

	// The backends are built the same way ukboot mounts them per Spec;
	// here they are wired by hand so the whole datapath is visible.
	var backend httpd.FileBackend
	if backendName == "shfs" {
		vol := unikraftSHFS(serverM)
		backend = &httpd.SHFSFiles{Vol: vol}
	} else {
		v := unikraftVFS(serverM)
		backend = &httpd.VFSFiles{VFS: v}
	}
	srv, err := httpd.NewFileServer(server, alloc, 80, backend, sendfile)
	if err != nil {
		return 0, err
	}
	gen := httpd.NewLoadGen(client, netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 80}, 30)
	gen.SetPaths([]string{"/index.html", "/page0.html", "/page1.html", "/page2.html"})

	w := closedloop.World{Client: client, Shards: []*netstack.Stack{server}, Apps: []closedloop.App{srv}}
	if err := w.Connect(gen); err != nil {
		return 0, err
	}
	return w.Run(gen, 1, requests)
}

// unikraftVFS builds the vfscore backend: a populated ramfs behind a
// VFS with the page cache on.
func unikraftVFS(m *sim.Machine) *vfscore.VFS {
	fs := ramfs.New()
	if err := ukboot.PopulateRamfs(fs, site()); err != nil {
		log.Fatal(err)
	}
	v := vfscore.New(m)
	if err := v.Mount("/", fs); err != nil {
		log.Fatal(err)
	}
	v.EnablePageCache(256)
	return v
}

// unikraftSHFS builds the specialized backend: a sealed hash volume.
func unikraftSHFS(m *sim.Machine) *shfs.FS {
	vol := shfs.New(m, 64)
	files := site()
	// Sorted: insertion order sets collision-chain order, which sets
	// open cost; map order made 1 run in 8 print 290.5K for 290.7K.
	for _, path := range ukboot.SortedFilePaths(files) {
		if err := vol.Add(path, files[path]); err != nil {
			log.Fatal(err)
		}
	}
	vol.Seal()
	return vol
}

func main() {
	rt := unikraft.NewRuntime()
	fmt.Println("Booting file-serving specs (WithRootFS/WithFiles):")
	for _, rootfs := range []string{"ramfs", "shfs", "9pfs"} {
		bootFS(rt, rootfs)
	}

	const requests = 2000
	fmt.Println("\nServing a 4-file mix, 30 keep-alive connections:")
	type cfg struct {
		backend  string
		sendfile bool
		label    string
	}
	var baseline float64
	for _, c := range []cfg{
		{"vfscore", false, "vfscore + copying read"},
		{"vfscore", true, "vfscore + zero-copy sendfile"},
		{"shfs", true, "shfs    + zero-copy sendfile"},
	} {
		rate, err := serve(c.backend, c.sendfile, requests)
		if err != nil {
			log.Fatal(err)
		}
		if baseline == 0 {
			baseline = rate
		}
		fmt.Printf("  %-30s %8.1fK req/s  (%.2fx)\n", c.label, rate/1e3, rate/baseline)
	}
	fmt.Println("\n(Fig 22: SHFS opens ~5x cheaper than the VFS path; the fileserve")
	fmt.Println(" experiment holds that band end to end and gates it in CI)")
}

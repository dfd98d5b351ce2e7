// Webserver: build and boot the nginx profile through the Runtime SDK
// for two allocator choices, then drive the HTTP server analogue with a
// wrk-style load generator over the virtio pair — the Fig 13 / Fig 14 /
// Fig 15 scenario as a runnable program.
package main

import (
	"fmt"
	"log"

	"unikraft"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

func run(allocName string, requests int) (float64, error) {
	clientM, serverM := sim.NewMachine(), sim.NewMachine()
	clientDev, serverDev, err := uknetdev.NewPair(clientM, serverM, uknetdev.VhostNet)
	if err != nil {
		return 0, err
	}
	client := netstack.New(clientM, clientDev, netstack.Config{Addr: netstack.IP(10, 0, 0, 1)})
	server := netstack.New(serverM, serverDev, netstack.Config{Addr: netstack.IP(10, 0, 0, 2)})

	alloc, err := ukalloc.NewInitialized(allocName, serverM, 64<<20)
	if err != nil {
		return 0, err
	}
	srv, err := httpd.New(server, alloc, 80, nil)
	if err != nil {
		return 0, err
	}
	gen := httpd.NewLoadGen(client, netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 80}, 30)

	// The closed-loop world pumps the wiring above to quiescence round
	// after round and reads the rate off the server's clock.
	w := closedloop.World{Client: client, Shards: []*netstack.Stack{server}, Apps: []closedloop.App{srv}}
	if err := w.Connect(gen); err != nil {
		return 0, err
	}
	return w.Run(gen, 1, requests) // wrk: one outstanding request per connection
}

func main() {
	const requests = 3000
	rt := unikraft.NewRuntime()
	fmt.Println("HTTP server throughput, 30 keep-alive connections, 612B page:")
	for _, alloc := range []string{"mimalloc", "tinyalloc"} {
		// Boot the nginx image with this allocator to get the Fig 14
		// boot-time side of the trade-off...
		inst, err := rt.Run(unikraft.NewSpec("nginx",
			unikraft.WithAllocator(alloc),
			unikraft.WithDCE(), unikraft.WithLTO()))
		if err != nil {
			log.Fatal(err)
		}
		boot := inst.VM.Report.Guest
		inst.Close()
		// ...then measure steady-state throughput (Fig 15's side).
		rate, err := run(alloc, requests)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  allocator=%-10s boot=%-12v %8.1fK req/s\n", alloc, boot, rate/1e3)
	}
	fmt.Println("(paper Fig 15: mimalloc 291.2K vs tinyalloc 217.1K — a ~25% gap)")
}

// Specialization: the paper's §6.4 story as a program. The same UDP
// key-value store is served twice — once through the full socket path
// (netstack + socket layer), once coded directly against the uknetdev
// API in polling mode — and the per-request CPU budgets are compared.
// This is Table 4's 20x specialization win.
package main

import (
	"fmt"
	"log"

	"unikraft"
	"unikraft/internal/apps/udpkv"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

const requests = 4000

func socketPath() (float64, error) {
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
	if err != nil {
		return 0, err
	}
	client := netstack.New(cm, cd, netstack.Config{Addr: netstack.IP(10, 0, 0, 1)})
	server := netstack.New(sm, sd, netstack.Config{
		Addr:                   netstack.IP(10, 0, 0, 2),
		PerDatagramSocketExtra: 4300, // lwIP socket-layer cost (see Table 4)
	})
	srv, err := udpkv.NewSocketServer(server, 5000, udpkv.NewStore())
	if err != nil {
		return 0, err
	}
	cli, err := udpkv.NewClient(client, netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 5000})
	if err != nil {
		return 0, err
	}
	cli.Set("motd", []byte("hello"))
	netstack.Pump(client, server)
	srv.Poll()
	netstack.Pump(client, server)
	cli.Drain()

	start := sm.CPU.Cycles()
	done := 0
	for done < requests {
		for i := 0; i < 32; i++ {
			cli.Get("motd")
		}
		netstack.Pump(client, server)
		srv.Poll()
		netstack.Pump(client, server)
		done += len(cli.Drain())
	}
	return float64(sm.CPU.Hz) / (float64(sm.CPU.Cycles()-start) / float64(done)), nil
}

func rawPath() (float64, error) {
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
	if err != nil {
		return 0, err
	}
	client := netstack.New(cm, cd, netstack.Config{Addr: netstack.IP(10, 0, 0, 1)})
	srv := udpkv.NewRawServer(sd, netstack.IP(10, 0, 0, 2), 5000, udpkv.NewStore())
	cli, err := udpkv.NewClient(client, netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 5000})
	if err != nil {
		return 0, err
	}
	cli.Set("motd", []byte("hello"))
	client.Poll()
	srv.Poll()
	client.Poll()
	cli.Drain()

	start := sm.CPU.Cycles()
	done := 0
	for done < requests {
		for i := 0; i < 32; i++ {
			cli.Get("motd")
		}
		client.Poll()
		srv.Poll()
		client.Poll()
		done += len(cli.Drain())
	}
	return float64(sm.CPU.Hz) / (float64(sm.CPU.Cycles()-start) / float64(done)), nil
}

func main() {
	// The image half of the story: the specialized udpkv profile links
	// directly against uknetdev, while the general nginx profile carries
	// the whole socket + netstack stack.
	rt := unikraft.NewRuntime()
	for _, app := range []string{"udpkv", "nginx"} {
		img, err := rt.Build(unikraft.NewSpec(app, unikraft.WithDCE(), unikraft.WithLTO()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %7.1fKB (%d micro-libraries)\n",
			app+" image:", float64(img.Bytes)/1024, len(img.Libs))
	}
	fmt.Println()

	sock, err := socketPath()
	if err != nil {
		log.Fatal(err)
	}
	raw, err := rawPath()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("socket path (lwip-style):    %8.0fK req/s\n", sock/1e3)
	fmt.Printf("specialized uknetdev path:   %8.0fK req/s\n", raw/1e3)
	fmt.Printf("specialization speedup:      %8.1fx\n", raw/sock)
	fmt.Println("(paper Table 4: 319K vs 6.3M req/s, ~20x)")
	// CI runs this program: outside Table 4's regime it is a failure,
	// not a number to read past.
	if s := raw / sock; s < 15 || s > 25 {
		log.Fatalf("specialization speedup %.1fx is outside 15-25x", s)
	}
}

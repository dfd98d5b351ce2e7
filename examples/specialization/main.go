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
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

const requests = 4000

var (
	clientIP   = netstack.IP(10, 0, 0, 1)
	serverAddr = netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 5000}
)

// serve wires a client and one server core over a vhost-user pair into
// a closed-loop world and measures requests GETs of one seeded key, 32
// in flight. With lwip the store is served through the full stack — a
// netstack over the device, lwIP's socket layer, a bound UDP socket;
// without, it is coded against uknetdev in polling mode and the server
// core has no netstack at all.
func serve(lwip bool) (float64, error) {
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
	if err != nil {
		return 0, err
	}
	w := &closedloop.World{Client: netstack.New(cm, cd, netstack.Config{Addr: clientIP}), Cores: []*sim.Machine{sm}}
	if lwip {
		server := netstack.New(sm, sd, netstack.Config{Addr: serverAddr.Addr, LwIPSocket: true})
		srv, err := udpkv.NewSocketServer(server, serverAddr.Port, udpkv.NewStore())
		if err != nil {
			return 0, err
		}
		w.Shards, w.Apps = []*netstack.Stack{server}, []closedloop.App{srv}
	} else {
		w.Apps = []closedloop.App{udpkv.NewRawServer(sd, serverAddr.Addr, serverAddr.Port, udpkv.NewStore())}
	}
	load, err := udpkv.NewLoad(w.Client, serverAddr, []uint16{0}, "motd", []byte("hello"), requests)
	if err != nil {
		return 0, err
	}
	if err := w.Connect(load); err != nil {
		return 0, err
	}
	m, err := w.Run(load, 32, requests)
	if load.Err() != nil {
		return 0, load.Err()
	}
	return m.Rate, err
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

	sock, err := serve(true)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := serve(false)
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

package unikraft

// Ablation benchmarks for the design choices the paper argues for:
// virtqueue kick batching (§3.1), the socket layer versus raw frames
// (§6.4), and DCE/LTO contributions to image size (§3, Fig 8). Each
// reports the two sides of the trade-off as metrics from one run.

import (
	"testing"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukbuild"
	"unikraft/internal/uknetdev"
)

// BenchmarkAblationKickBatching: one virtqueue kick per packet versus
// one per burst — why uk_netdev_tx_burst takes arrays (§3.1).
func BenchmarkAblationKickBatching(b *testing.B) {
	send := func(burst int) uint64 {
		ma, mb := sim.NewMachine(), sim.NewMachine()
		dev, _, err := uknetdev.NewPair(ma, mb, uknetdev.VhostNet)
		if err != nil {
			b.Fatal(err)
		}
		pkts := make([]*uknetdev.Netbuf, burst)
		for i := range pkts {
			pkts[i] = uknetdev.NewNetbuf(0, 128)
			pkts[i].Len = 64
		}
		const total = 1024
		before := ma.CPU.Cycles()
		for sent := 0; sent < total; sent += burst {
			dev.TxBurst(0, pkts)
		}
		return ma.CPU.Cycles() - before
	}
	var perPacket, batched uint64
	for i := 0; i < b.N; i++ {
		perPacket = send(1)
		batched = send(32)
	}
	b.ReportMetric(float64(perPacket)/1024, "kick-per-pkt-cycles/pkt")
	b.ReportMetric(float64(batched)/1024, "kick-per-burst-cycles/pkt")
}

// BenchmarkAblationLinkerPasses: isolate how much of the nginx image
// each optimization removes (the Fig 8 sweep as deltas).
func BenchmarkAblationLinkerPasses(b *testing.B) {
	rt := NewRuntime()
	var def, lto, dce int
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			opts ukbuild.Options
			out  *int
		}{
			{ukbuild.Options{}, &def},
			{ukbuild.Options{LTO: true}, &lto},
			{ukbuild.Options{DCE: true}, &dce},
		} {
			img, err := rt.Build(NewSpec("nginx", WithPlatform(PlatformKVM),
				WithBuildFlags(c.opts.DCE, c.opts.LTO)))
			if err != nil {
				b.Fatal(err)
			}
			*c.out = img.Bytes
		}
	}
	b.ReportMetric(float64(def-lto)/1024, "lto-saves-KB")
	b.ReportMetric(float64(def-dce)/1024, "dce-saves-KB")
	b.ReportMetric(float64(dce)/1024, "final-KB")
}

// BenchmarkAblationSocketLayer: the per-request cost of each layer the
// §6.4 specialization peels away, measured as UDP echo cost through the
// socket API versus raw frames (Table 4's mechanism, isolated from app
// logic).
func BenchmarkAblationSocketLayer(b *testing.B) {
	var viaSockets, raw uint64
	for i := 0; i < b.N; i++ {
		// Socket path: one datagram through two full stacks.
		cm, sm := sim.NewMachine(), sim.NewMachine()
		cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
		if err != nil {
			b.Fatal(err)
		}
		client := netstack.New(cm, cd, netstack.Config{Addr: netstack.IP(10, 0, 0, 1)})
		server := netstack.New(sm, sd, netstack.Config{Addr: netstack.IP(10, 0, 0, 2)})
		srv, err := server.BindUDP(9)
		if err != nil {
			b.Fatal(err)
		}
		cli, err := client.BindUDP(0)
		if err != nil {
			b.Fatal(err)
		}
		warm := func() {
			cli.SendTo(netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 9}, []byte("w"))
			netstack.Pump(client, server)
			srv.RecvFrom()
		}
		warm()
		before := sm.CPU.Cycles()
		for j := 0; j < 64; j++ {
			cli.SendTo(netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 9}, []byte("x"))
		}
		netstack.Pump(client, server)
		for {
			if _, ok := srv.RecvFrom(); !ok {
				break
			}
		}
		viaSockets = (sm.CPU.Cycles() - before) / 64

		// Raw path: the same 64 frames consumed straight off the ring.
		cm2, sm2 := sim.NewMachine(), sim.NewMachine()
		cd2, sd2, err := uknetdev.NewPair(cm2, sm2, uknetdev.VhostUser)
		if err != nil {
			b.Fatal(err)
		}
		frame := uknetdev.NewNetbuf(0, 128)
		frame.Len = 64
		for j := 0; j < 64; j++ {
			cd2.TxBurst(0, []*uknetdev.Netbuf{frame})
		}
		rx := make([]*uknetdev.Netbuf, 64)
		for j := range rx {
			rx[j] = uknetdev.NewNetbuf(0, 2048)
		}
		before = sm2.CPU.Cycles()
		sd2.RxBurst(0, rx)
		raw = (sm2.CPU.Cycles() - before) / 64
	}
	b.ReportMetric(float64(viaSockets), "socket-path-cycles/pkt")
	b.ReportMetric(float64(raw), "raw-path-cycles/pkt")
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"unikraft"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

// guest is a spec built and booted through the public SDK.
type guest struct {
	rt   *unikraft.Runtime
	inst *unikraft.Instance
	// Host cost of the build and of the boot, measured in the traced
	// repetition only (the boot's is Run minus the build Run repeats).
	buildNs, bootNs int64
	bootAllocB      uint64
}

// bootGuest builds and boots spec on a fresh runtime, as a user of the
// SDK would: catalog, link, boot.
func bootGuest(r *rep, spec unikraft.Spec) (*guest, error) {
	g := &guest{rt: unikraft.NewRuntime()}
	var err error
	if r.tr == nil {
		g.inst, err = g.rt.Run(spec)
		return g, err
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.tr.enter(lUkbuild, "Runtime.Build")
	t0 := time.Now()
	_, err = g.rt.Build(spec)
	g.buildNs = int64(time.Since(t0))
	r.tr.exit()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	r.tr.enter(lUkboot, "Runtime.Run")
	t0 = time.Now()
	g.inst, err = g.rt.Run(spec)
	g.bootNs = int64(time.Since(t0)) - g.buildNs
	r.tr.exit()
	runtime.ReadMemStats(&m2)
	g.bootAllocB = (m2.TotalAlloc - m1.TotalAlloc) - (m1.TotalAlloc - m0.TotalAlloc)
	return g, err
}

// bootLayers reports what set-up measured about ukbuild and ukboot for
// a single-guest workload.
func (g *guest) bootLayers(out map[string]float64) {
	rep := g.inst.VM.Report
	out["ukbuild.host_ns_per_build"] = float64(g.buildNs)
	out["ukbuild.libs"] = float64(len(g.inst.Image.Libs))
	out["ukboot.sim_guest_us"] = float64(rep.Guest) / 1e3
	out["ukboot.sim_vmm_us"] = float64(rep.VMM) / 1e3
	out["ukboot.boots"] = 1
	out["ukboot.host_ns_per_boot"] = float64(g.bootNs)
	out["ukboot.host_alloc_b_per_boot"] = float64(g.bootAllocB)
}

var (
	clientIP = netstack.IP(10, 0, 0, 1)
	serverIP = netstack.IP(10, 0, 0, 2)
)

// tcpWorld is a client stack and the guest's server stack over a
// virtio pair: the server side runs on the booted VM's machine and
// heap, the client on a machine of its own whose time nobody reads.
type tcpWorld struct {
	*guest
	sm             *sim.Machine
	client, server *netstack.Stack
	sdev           *uknetdev.VirtioNet
	heap           ukalloc.Allocator
	talloc         *tracedAlloc // traced repetition only

	polls, emptyPolls int
	dev0              uknetdev.Stats
	net0              netstack.Stats
	heap0             ukalloc.Stats
}

func newTCPWorld(r *rep, spec unikraft.Spec, backend uknetdev.Backend) (*tcpWorld, error) {
	g, err := bootGuest(r, spec)
	if err != nil {
		return nil, err
	}
	tuning, err := g.rt.NetTuning(spec)
	if err != nil {
		return nil, err
	}
	w := &tcpWorld{guest: g, sm: g.inst.VM.Machine, heap: g.inst.VM.Heap}
	cm := sim.NewMachine()
	cd, sd, err := uknetdev.NewTunedPair(cm, w.sm, backend, tuning)
	if err != nil {
		return nil, err
	}
	w.sdev = sd
	var dev uknetdev.Device = sd
	if r.tr != nil {
		dev = &tracedDevice{VirtioNet: sd, tr: r.tr}
		w.talloc = &tracedAlloc{Allocator: w.heap, tr: r.tr}
		w.heap = w.talloc
	}
	w.client = netstack.New(cm, cd, netstack.Config{Addr: clientIP, Name: "client", ZeroCopy: spec.ZeroCopy})
	w.server = netstack.New(w.sm, dev, netstack.Config{Addr: serverIP, Name: "server", ZeroCopy: spec.ZeroCopy})
	return w, nil
}

// pump moves frames until the world is quiet: client stack, server
// stack, the application's event loop, and back. collect reads the
// client's sockets and returns how many replies it completed.
func (w *tcpWorld) pump(tr *tracer, appPoll func(), collect func() int) {
	serverPoll := func() int {
		tr.enter(lNetstack, "Stack.Poll")
		n := w.server.Poll()
		tr.exit()
		w.polls++
		if n == 0 {
			w.emptyPolls++
		}
		return n
	}
	for {
		tr.enter(lClient, "client.Poll")
		moved := w.client.Poll()
		tr.exit()
		moved += serverPoll()
		tr.enter(lApps, "Server.Poll")
		appPoll()
		tr.exit()
		moved += serverPoll()
		tr.enter(lClient, "client.Collect")
		moved += w.client.Poll()
		moved += collect()
		tr.exit()
		if moved == 0 {
			// Quiet: charge any coalesced TX kick the device still owes.
			tr.enter(lNetstack, "Stack.Flush")
			w.server.Flush()
			tr.exit()
			return
		}
	}
}

// rtoCycles is how far both clocks are advanced when a round completes
// nothing: past the TCP retransmission timeout, so the timers fire. The
// gap is idle time, not server work, and is left out of the rate.
const rtoCycles = 200_000_000

// drive runs fire/pump rounds until completed() reaches target. It
// returns the idle cycles it inserted (zero on a healthy run).
func (w *tcpWorld) drive(tr *tracer, target int, fire func(), appPoll func(), collect func() int, completed func() int) (idle uint64, err error) {
	for stalls := 0; completed() < target; {
		before := completed()
		tr.setReq(before) // spans of a round carry its first request's number
		tr.enter(lClient, "client.Fire")
		fire()
		tr.exit()
		w.pump(tr, appPoll, collect)
		if completed() > before {
			continue
		}
		if stalls++; stalls > 8 {
			return idle, fmt.Errorf("no progress after %d requests (%d retransmission timeouts)", completed(), stalls)
		}
		w.client.Machine().Charge(rtoCycles)
		w.sm.Charge(rtoCycles)
		idle += rtoCycles
		w.pump(tr, appPoll, collect)
	}
	return idle, nil
}

// mark notes the server-side counters at the start of the timed section.
func (w *tcpWorld) mark() {
	w.polls, w.emptyPolls = 0, 0
	if w.talloc != nil {
		w.talloc.bytes = 0
	}
	w.dev0, w.net0, w.heap0 = w.sdev.Stats(), w.server.Stats(), w.heap.Stats()
}

// closedTimed brackets a closed loop's timed section: clocks, the
// tracer's root span, and the server's cycle counter.
type closedTimed struct {
	r      *rep
	cpu    *sim.CPU
	start  uint64
	cycles uint64 // server cycles over the section, idle gaps included
}

func beginTimed(r *rep, cpu *sim.CPU) *closedTimed {
	t := &closedTimed{r: r, cpu: cpu}
	r.clock.startTimed()
	if r.tr != nil {
		// Set-up spans stay in the trace file; the aggregates cover the
		// timed section only, and only it samples the server's cycles.
		r.tr.agg = [nLayers]layerAgg{}
		r.tr.cpu = cpu
	}
	t.start = cpu.Cycles()
	r.tr.enter(lOther, "timed section")
	return t
}

func (t *closedTimed) end() {
	t.r.tr.exit()
	t.cycles = t.cpu.Cycles() - t.start
	t.r.clock.stopTimed()
}

// finish derives what every closed loop reports the same way: the
// simulated end-to-end metrics from the section's server cycles, the
// recorded latencies and the guest's spec, and in the traced repetition
// the per-request split of cycles and host time by layer and what
// set-up measured about the build and the boot.
func (t *closedTimed) finish(g *guest, spec unikraft.Spec, completed, failures int, idle uint64, lat []uint32) error {
	out := &t.r.out
	busy := t.cycles - idle
	out.attempted = completed
	out.failures = failures
	out.sim[mRPS] = float64(completed) * float64(t.cpu.Hz) / float64(busy)
	out.sim[mOKFrac] = float64(completed-failures) / float64(completed)
	out.samples = latencyMetrics(lat, t.cpu.Hz, out.sim)
	if err := specMetrics(g.rt, spec, g.inst.Image, g.inst.VM.Report.Total(), out.sim); err != nil {
		return err
	}
	tr := t.r.tr
	if tr == nil {
		return nil
	}
	// The layers' cycles and the remainder no span covered must add up
	// to the section's cycles exactly.
	var sum uint64
	for l := range tr.agg {
		sum += tr.agg[l].selfCycles
	}
	if sum != t.cycles {
		return fmt.Errorf("layer cycles sum to %d, the server spent %d", sum, t.cycles)
	}
	n := float64(completed)
	for _, l := range []layer{lUknetdev, lNetstack, lUkalloc, lVfscore, lApps} {
		out.layer[layerNames[l]+".sim_cycles_per_req"] = float64(tr.agg[l].selfCycles) / n
		out.layer[layerNames[l]+".host_ns_per_req"] = float64(tr.agg[l].selfNs) / n
	}
	out.layer["client.host_ns_per_req"] = float64(tr.agg[lClient].selfNs) / n
	out.layer["client.verify_failures"] = float64(failures)
	out.layer["other.sim_cycles_per_req"] = float64(tr.agg[lOther].selfCycles+tr.agg[lClient].selfCycles) / n
	out.tracers = append(out.tracers, tr)
	g.bootLayers(out.layer)
	return nil
}

// netLayers writes the device, stack and allocator counters of the
// timed section.
func (w *tcpWorld) netLayers(out map[string]float64, completed int) {
	n := float64(completed)
	deviceLayer(out, w.dev0, w.sdev.Stats(), n)
	ns := w.server.Stats()
	out["netstack.segs_per_req"] = float64(ns.TCPSegsIn+ns.TCPSegsOut-w.net0.TCPSegsIn-w.net0.TCPSegsOut) / n
	out["netstack.retransmits"] = float64(ns.TCPRetransmits - w.net0.TCPRetransmits)
	out["netstack.rx_dropped"] = float64(ns.RxDropped - w.net0.RxDropped)
	out["netstack.polls_per_req"] = float64(w.polls) / n
	out["netstack.empty_poll_frac"] = float64(w.emptyPolls) / float64(w.polls)
	allocLayer(out, w.heap0, w.heap.Stats(), w.talloc, n)
}

func deviceLayer(out map[string]float64, a, b uknetdev.Stats, n float64) {
	out["uknetdev.pkts_per_req"] = float64(b.TxPackets+b.RxPackets-a.TxPackets-a.RxPackets) / n
	out["uknetdev.bytes_per_req"] = float64(b.TxBytes+b.RxBytes-a.TxBytes-a.RxBytes) / n
	out["uknetdev.kicks_per_req"] = float64(b.Kicks-a.Kicks) / n
	out["uknetdev.irqs_per_req"] = float64(b.IRQs-a.IRQs) / n
	if tx := b.TxPackets - a.TxPackets; tx > 0 {
		out["uknetdev.zc_frac"] = float64(b.ZCPackets-a.ZCPackets) / float64(tx)
	}
	out["uknetdev.drops"] = float64(b.TxDrops + b.RxDrops - a.TxDrops - a.RxDrops)
}

func allocLayer(out map[string]float64, a, b ukalloc.Stats, t *tracedAlloc, n float64) {
	out["ukalloc.mallocs_per_req"] = float64(b.Mallocs-a.Mallocs) / n
	out["ukalloc.bytes_per_req"] = float64(t.bytes) / n
	out["ukalloc.failed"] = float64(b.Failures - a.Failures)
	out["ukalloc.live_peak_kb"] = float64(b.PeakUsed) / 1024
}

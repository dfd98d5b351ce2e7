package main

import (
	"encoding/json"
	"os"
	"time"

	"unikraft/internal/sim"
)

// Layers are this repository's modules, as seen from outside: a span is
// opened by a decorator on one of the interfaces or callbacks the
// program already exposes, or around a call the benchmark makes itself.
type layer int

const (
	lOther layer = iota // the timed section itself; its self time is what no span covered
	lUkbuild
	lUkboot
	lUknetdev
	lNetstack
	lUkalloc
	lVfscore
	lApps
	lClient
	lSim
	lUkpool
	lUkcluster
	lWorkload
	nLayers
)

var layerNames = [nLayers]string{"other", "ukbuild", "ukboot", "uknetdev", "netstack",
	"ukalloc", "vfscore", "apps", "client", "sim", "ukpool", "ukcluster", "workload"}

// fullSpanRequests is how many requests (or bursts, or events) keep
// their full spans; later ones only feed the per-layer aggregates.
const fullSpanRequests = 2000

// span is one recorded interval. Parent indexes the span that caused
// it (-1 for a root); Req is the request, burst or event it belongs to.
type span struct {
	Name       string
	Layer      layer
	StartNs    int64
	EndNs      int64
	StartCycle uint64
	EndCycle   uint64
	Parent     int
	Req        int
}

type frame struct {
	layer              layer
	name               string
	startNs, childNs   int64
	startCyc, childCyc uint64
	idx                int // index in spans, -1 when not kept
}

type layerAgg struct {
	selfCycles uint64
	selfNs     int64
	spans      uint64
}

// tracer records spans on one goroutine. Every span samples the server
// machine's cycle counter (when there is one) and the host clock at
// enter and exit; a layer's self time is its spans' duration minus the
// part their child spans cover, so the layers' self cycles plus the
// root's add up to the root span exactly.
//
// A nil *tracer is the untraced run: every method returns at once.
type tracer struct {
	cpu   *sim.CPU // server clock; nil where no single machine serves (open loops)
	t0    time.Time
	tid   int
	stack []frame
	agg   [nLayers]layerAgg
	spans []span
	req   int
}

func newTracer(cpu *sim.CPU, t0 time.Time, tid int) *tracer {
	return &tracer{cpu: cpu, t0: t0, tid: tid, req: -1} // -1: set-up, before any request
}

func (t *tracer) cycles() uint64 {
	if t.cpu == nil {
		return 0
	}
	return t.cpu.Cycles()
}

// setReq names the request (burst, event) the following spans belong to.
func (t *tracer) setReq(id int) {
	if t != nil {
		t.req = id
	}
}

func (t *tracer) enter(l layer, name string) {
	if t == nil {
		return
	}
	f := frame{layer: l, name: name, idx: -1,
		startNs: int64(time.Since(t.t0)), startCyc: t.cycles()}
	if t.req < fullSpanRequests {
		parent := -1
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].idx >= 0 {
				parent = t.stack[i].idx
				break
			}
		}
		f.idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Layer: l, StartNs: f.startNs,
			StartCycle: f.startCyc, Parent: parent, Req: t.req})
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) exit() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	endNs, endCyc := int64(time.Since(t.t0)), t.cycles()
	durNs, durCyc := endNs-f.startNs, endCyc-f.startCyc
	a := &t.agg[f.layer]
	a.selfNs += durNs - f.childNs
	a.selfCycles += durCyc - f.childCyc
	a.spans++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += durNs
		t.stack[n-1].childCyc += durCyc
	}
	if f.idx >= 0 {
		t.spans[f.idx].EndNs = endNs
		t.spans[f.idx].EndCycle = endCyc
	}
}

// chromeEvent is one Chrome trace-event "complete" event (ph "X").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the kept spans of every tracer plus the
// per-layer aggregates of the whole traced run as Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto).
func writeChromeTrace(path, workload string, tracers []*tracer, aggregates map[string]float64) error {
	events := []chromeEvent{}
	for _, t := range tracers {
		for i, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: layerNames[s.Layer], Ph: "X",
				Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Pid: 1, Tid: t.tid,
				Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req,
					"sim_cycles": s.EndCycle - s.StartCycle},
			})
		}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"workload":   workload,
			"full_spans": fullSpanRequests,
			"aggregates": aggregates,
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"unikraft"
)

// workload is one of the benchmark's traffic mixes.
type workload struct {
	name string
	open bool // open loop (arrivals on a schedule) or closed (clients wait for replies)
	// run performs one repetition: set-up, r.clock.startTimed(), the
	// timed section, r.clock.stopTimed(), then verification. It fills
	// r.out. With r.tr set it installs the tracing decorators.
	run func(r *rep) error
	// maxRate searches the highest offered rate an open loop sustains
	// (closed loops run saturated, so theirs is the rate they measured).
	maxRate func(seed uint64, scale float64) (float64, error)
}

// rep is one repetition's context.
type rep struct {
	seed  uint64
	scale float64
	tr    *tracer      // nil in untraced repetitions
	loops *loopFactory // traced open loops: the engines the pools ran on
	clock hostClock
	out   repOut
}

// repOut is what a repetition measured.
type repOut struct {
	sim       map[string]float64 // simulated end-to-end metrics: exact for a seed
	layer     map[string]float64 // per-layer metrics (traced repetition only)
	attempted int                // requests in the timed section
	failures  int                // wrong content, or requests the reports cannot account for
	digest    fnv64              // of the generated request stream
	samples   int                // latency samples behind sim_p99_us
	tracers   []*tracer
}

// scaled scales a request count, keeping at least a handful.
func scaled(full int, scale float64) int {
	return max(64, int(math.Round(float64(full)*scale)))
}

func (r *rep) n(full int) int { return scaled(full, r.scale) }

// The specs every workload boots go through the same link switches the
// repository's tools use (dead-code elimination and LTO): the paper's
// ~1 MB images.
func specFor(app string, opts ...unikraft.Option) unikraft.Spec {
	return unikraft.NewSpec(app, append([]unikraft.Option{unikraft.WithDCE(), unikraft.WithLTO()}, opts...)...)
}

// specMetrics fills the three figures that depend only on the spec:
// boot time, image size and minimum memory — with throughput, the
// paper's four numbers per application.
func specMetrics(rt *unikraft.Runtime, spec unikraft.Spec, img *unikraft.Image, boot time.Duration, sim map[string]float64) error {
	mem, err := rt.MinMemory(spec)
	if err != nil {
		return fmt.Errorf("min memory: %w", err)
	}
	sim[mBootUs] = float64(boot) / 1e3
	sim[mImageKB] = float64(img.Bytes) / 1e3
	sim[mMinMemMB] = float64(mem) / (1 << 20)
	return nil
}

// latencyMetrics turns per-request latencies (server cycles) into the
// mean and the 99th percentile in simulated microseconds. It sorts vals
// in place.
func latencyMetrics(vals []uint32, hz uint64, sim map[string]float64) int {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	var sum uint64
	for _, v := range vals {
		sum += uint64(v)
	}
	toUs := 1e6 / float64(hz)
	sim[mMeanUs] = float64(sum) / float64(len(vals)) * toUs
	sim[mP99Us] = float64(vals[(len(vals)-1)*99/100]) * toUs
	return len(vals)
}

// repHost is one untraced repetition's host record.
type repHost struct {
	hostStats
	requests int
}

func (h repHost) perReqNs() float64 { return float64(h.timedNs) / float64(h.requests) }

// inputSets is how many input sets a run generates from its seed.
// Repetition i uses set i mod inputSets, and a simulated metric is the
// mean over the sets: an overloaded cluster's tail depends on its exact
// arrivals, and one set per run would make a comparison of runs on
// different seeds twice as noisy as it needs to be. The
// count is fixed, not "as many as fit the budget", so the result does
// not depend on how fast the host is.
const inputSets = 4

// runResult is everything one workload run produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Digest    string             `json:"request_stream_fnv"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	// Spread is, per host metric, the relative distance between the
	// best and the median repetition: how noisy this run was.
	Spread map[string]float64 `json:"rep_spread"`
	reps   []repHost
	calib  []int64            // every calibration kernel run of the invocation
	set0   map[string]float64 // simulated metrics of input set 0, which the traced repetition replays
}

// oneRep runs a single repetition.
func oneRep(w *workload, seed uint64, scale float64, tr *tracer) (*rep, repHost, error) {
	r := &rep{seed: seed, scale: scale, tr: tr}
	r.out.sim = map[string]float64{}
	r.out.digest = fnvOffset
	if tr != nil {
		r.out.layer = map[string]float64{}
		r.loops = &loopFactory{t0: tr.t0}
	}
	r.clock.begin()
	if err := w.run(r); err != nil {
		return nil, repHost{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.clock.inTime || r.clock.stats.timedNs == 0 {
		return nil, repHost{}, fmt.Errorf("%s: repetition did not mark its timed section", w.name)
	}
	return r, repHost{hostStats: r.clock.stats, requests: r.out.attempted}, nil
}

// measure runs untraced repetitions of w until the time budget is used
// (and at least minReps), or exactly reps of them when reps > 0, and
// derives the end-to-end metrics. Every repetition regenerates its
// inputs and boots its own guest, so every repetition is also a set-up
// sample; repetitions of one input set must agree exactly on every
// simulated result. The calibration kernel runs before and after every
// repetition.
func measure(w *workload, seed uint64, scale float64, budget time.Duration, reps int, search bool) (*runResult, error) {
	const minReps = 2 * inputSets
	start := time.Now()
	res := &runResult{Workload: w.name, Seed: seed, E2E: map[string]float64{}, Spread: map[string]float64{}}
	sets := inputSets
	if reps > 0 && reps < sets {
		sets = reps
	}
	// The max-rate search comes out of the same budget, so it goes
	// first and the repetitions fill what is left.
	if w.maxRate != nil && search {
		rate, err := w.maxRate(seed*inputSets, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: max-rate search: %w", w.name, err)
		}
		res.E2E[mMaxRate] = rate
	}
	first := make([]*rep, sets)
	res.calib = append(res.calib, calibrate())
	for i := 0; ; i++ {
		if reps > 0 && i >= reps {
			break
		}
		if reps <= 0 && i >= minReps && time.Since(start) >= budget {
			break
		}
		set := i % sets
		r, h, err := oneRep(w, seed*inputSets+uint64(set), scale, nil)
		if err != nil {
			return nil, err
		}
		res.calib = append(res.calib, calibrate())
		res.reps = append(res.reps, h)
		res.Failed += r.out.failures
		if first[set] == nil {
			first[set] = r
			continue
		}
		for name, v := range first[set].out.sim {
			if r.out.sim[name] != v {
				return nil, fmt.Errorf("%s: repetition %d disagrees on %s: %v vs %v (one input set must repeat exactly)",
					w.name, i, name, r.out.sim[name], v)
			}
		}
		if r.out.digest != first[set].out.digest {
			return nil, fmt.Errorf("%s: repetition %d generated a different request stream", w.name, i)
		}
	}
	digest := fnvOffset
	for _, r := range first {
		for name, v := range r.out.sim {
			res.E2E[name] += v / float64(sets)
		}
		digest.u64(uint64(r.out.digest))
		res.Samples += r.out.samples
	}
	if w.maxRate == nil {
		// A closed loop keeps its server saturated: the rate it measured
		// is the highest it sustains.
		res.E2E[mMaxRate] = res.E2E[mRPS]
	}
	res.set0 = first[0].out.sim
	res.Reps = len(res.reps)
	res.Attempted = first[0].out.attempted
	res.Digest = fmt.Sprintf("%016x", uint64(digest))
	res.hostMetrics(sets)
	return res, nil
}

// hostMetrics derives the host end-to-end metrics from the repetitions.
// Both times are scaled by the best calibration kernel run of the
// invocation, and the cost per request is the best repetition's: two
// minima are what the machine does when nothing else interferes, so
// their ratio holds still when the whole invocation lands in a slow
// period. (Scaling every repetition by its own two kernel runs was
// measured too: the minimum then favours repetitions whose kernel runs
// were disturbed, and the figure spreads more between invocations than
// the raw one.) Set-up is the lower quartile instead: it is mostly
// page-faulting a 64 MB guest, and a repetition that happens to get
// recycled pages takes half as long, so the fastest set-up says whether
// a lucky repetition occurred and not how long set-up takes. The
// allocation counters are the mean over one repetition per input set.
func (res *runResult) hostMetrics(sets int) {
	scale := float64(calibRefNs) / float64(slices.Min(res.calib))
	sorted := func(f func(h repHost) float64) []float64 {
		vals := make([]float64, len(res.reps))
		for i, h := range res.reps {
			vals[i] = f(h)
		}
		sort.Float64s(vals)
		return vals
	}
	report := func(name string, vals []float64, pick int, unit float64) {
		res.E2E[name] = vals[pick] * scale / unit
		res.Spread[name] = (vals[len(vals)/2] - vals[0]) / vals[0]
	}
	report(mHostNs, sorted(repHost.perReqNs), 0, 1)
	report(mSetupS, sorted(func(h repHost) float64 { return float64(h.setupNs) }), len(res.reps)/4, 1e9)
	for _, h := range res.reps[:sets] {
		res.E2E[mAllocB] += float64(h.allocBytes) / float64(h.requests) / float64(sets)
		res.E2E[mAllocs] += float64(h.allocs) / float64(h.requests) / float64(sets)
	}
}

// traced runs the one traced repetition of w and fills res.Layer: the
// per-layer metrics, plus the harness's own diagnostics about the
// untraced repetitions in res. The traced repetition must reproduce
// every simulated end-to-end value exactly — tracing may cost host
// time, never virtual time. Spans go to <dir>/<workload>.trace.json.
func traced(w *workload, res *runResult, scale float64, dir string) error {
	tr := newTracer(nil, time.Now(), 1)
	r, h, err := oneRep(w, res.Seed*inputSets, scale, tr)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	for name, v := range r.out.sim {
		if res.set0[name] != v {
			return fmt.Errorf("%s: traced repetition changed %s: %v, untraced %v", w.name, name, v, res.set0[name])
		}
	}
	res.Failed += r.out.failures
	// res.Layer holds what this workload's layers emitted; a declared
	// metric it lacks belongs to a layer the workload does not exercise
	// and prints as 0.
	res.Layer = r.out.layer

	best := res.reps[0]
	var gc float64
	for _, u := range res.reps {
		if u.perReqNs() < best.perReqNs() {
			best = u
		}
		gc += float64(u.gcCycles) / float64(len(res.reps))
	}
	rawPerReq := best.perReqNs()
	res.Layer["harness.host_raw_ns_per_req"] = rawPerReq
	res.Layer["harness.host_cpu_ns_per_req"] = float64(best.cpuNs) / float64(best.requests)
	res.Layer["harness.calib_ns"] = float64(slices.Min(res.calib))
	res.Layer["harness.rep_spread"] = res.Spread[mHostNs]
	res.Layer["harness.gc_cycles_per_rep"] = gc
	res.Layer["harness.peak_rss_mb"] = peakRSSMB()
	res.Layer["harness.trace_overhead"] = h.perReqNs() / rawPerReq
	for name := range res.Layer {
		if !slices.ContainsFunc(declared.PerLayer, func(d declMetric) bool { return d.Name == name }) {
			return fmt.Errorf("%s: undeclared per-layer metric %s", w.name, name)
		}
	}
	return writeChromeTrace(filepath.Join(dir, w.name+".trace.json"), w.name, r.out.tracers, res.Layer)
}

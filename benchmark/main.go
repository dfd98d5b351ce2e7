// Command benchmark is the repository's performance benchmark: seven
// seeded workloads built and driven through the public SDK, twelve
// end-to-end metrics (simulated and host), and per-layer numbers from a
// separate traced repetition. README.md in this directory explains how
// to run it and what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads in the order BENCHMARK.json declares them; what each is
// for is written there.
var workloads = []*workload{
	{name: "http-wrk", run: runHTTPWrk},
	{name: "kv-pipe16", run: runKVPipe16},
	{name: "udp-raw", run: runUDPRaw},
	{name: "files-mix", run: runFilesMix},
	{name: "sql-mixed", run: runSQLMixed},
	{name: "pool-bursty", open: true, run: poolBursty.run, maxRate: poolBursty.maxRate},
	{name: "cluster-chaos", open: true, run: clusterChaos.run, maxRate: clusterChaos.maxRate},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print one JSON result line (the driver's contract); empty runs all seven")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 8, "time budget per workload for the untraced repetitions (and the max-rate search)")
		trace    = flag.Int("trace", -1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced repetition")
		reps     = flag.Int("reps", 0, "run exactly this many untraced repetitions instead of filling -seconds")
		scale    = flag.Float64("scale", 1, "multiply every workload's request count (smoke tests use 0.01)")
		outDir   = flag.String("out", "benchmark/out", "directory for results.json and <workload>.trace.json")
		declPath = flag.String("decl", "BENCHMARK.json", "the benchmark's declaration: metric names, units, directions and regression bounds")
		repeat   = flag.Bool("repeat-check", false, "run everything twice and fail unless simulated metrics agree exactly and host metrics within their bounds")
		compare  = flag.Bool("compare", false, "compare two results.json files (base, new) given as arguments")
	)
	flag.Parse()
	// Load is generated by this one process; two threads is what the
	// box it was sized on has, and more would only add scheduling noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := loadDeclaration(*declPath); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json files: base new"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	calibInit()
	cfg := runConfig{seed: *seed, scale: *scale, reps: *reps, outDir: *outDir,
		budget: time.Duration(*seconds * float64(time.Second))}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := contractRun(w, cfg, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}

	first, second, err := suite(cfg, *repeat)
	if err != nil {
		fatal(err)
	}
	if *repeat {
		if !repeatCheck(os.Stdout, first, second) {
			os.Exit(1)
		}
	}
	for _, res := range first {
		if res.Failed > 0 {
			fatal(fmt.Errorf("%s: %d verification failures", res.Workload, res.Failed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type runConfig struct {
	seed   uint64
	scale  float64
	reps   int
	budget time.Duration
	outDir string
}

// contractRun is one driver invocation: one workload, and on the last
// line of standard output one JSON object with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
func contractRun(w *workload, cfg runConfig, wantLayers bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	if wantLayers {
		// A few untraced repetitions give the traced one its reference;
		// the max-rate search is an end-to-end metric's and is skipped.
		cfg.reps = 3
	}
	res, err := measure(w, cfg.seed, cfg.scale, cfg.budget, cfg.reps, !wantLayers)
	if err != nil {
		return err
	}
	decls, vals := declared.EndToEnd, res.E2E
	if wantLayers {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		if err := traced(w, res, cfg.scale, cfg.outDir); err != nil {
			return err
		}
		decls, vals = declared.PerLayer, res.Layer
	}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok && !wantLayers {
			return fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	out.Attempted, out.Failed, out.Correct = res.Attempted, res.Failed, res.Failed == 0
	fmt.Printf("%s seed %d: %d repetitions, request stream fnv %s, late_us 0\n", w.name, res.Seed, res.Reps, res.Digest)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d verification failures", w.name, res.Failed)
	}
	return nil
}

// suite runs every workload — untraced repetitions, the max-rate
// search, one traced repetition — prints every metric by name with its
// unit, and leaves results.json and the trace files in the output
// directory. With twice set, every workload's untraced part is measured
// a second time right after the first, for -repeat-check: the box has
// slow minutes, and two passes a suite apart would compare the minutes,
// not the code.
func suite(cfg runConfig, twice bool) (first, second []*runResult, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, w := range workloads {
		start := time.Now()
		res, err := measure(w, cfg.seed, cfg.scale, cfg.budget, cfg.reps, true)
		if err != nil {
			return nil, nil, err
		}
		if twice {
			again, err := measure(w, cfg.seed, cfg.scale, cfg.budget, cfg.reps, true)
			if err != nil {
				return nil, nil, err
			}
			second = append(second, again)
		}
		if err := traced(w, res, cfg.scale, cfg.outDir); err != nil {
			return nil, nil, err
		}
		first = append(first, res)
		loop := "closed loop"
		if w.open {
			loop = "open loop, late_us 0"
		}
		fmt.Printf("\n== %s (%s) seed %d: %d requests x %d repetitions, %d failed, p99 over %d samples, request stream fnv %s, %.1fs\n",
			w.name, loop, res.Seed, res.Attempted, res.Reps, res.Failed, res.Samples, res.Digest, time.Since(start).Seconds())
		for _, d := range declared.EndToEnd {
			v, ok := res.E2E[d.Name]
			if !ok {
				return nil, nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
			}
			kind := "sim"
			switch d.Name {
			case mHostNs:
				kind = fmt.Sprintf("host, best of %d, median +%.1f%%", res.Reps, 100*res.Spread[d.Name])
			case mSetupS:
				kind = fmt.Sprintf("host, lower quartile of %d", res.Reps)
			case mAllocB, mAllocs:
				kind = "host, mean over the input sets"
			}
			fmt.Printf("  %-28s %16.6g %-10s (%s)\n", d.Name, v, d.Unit, kind)
		}
		for _, d := range declared.PerLayer {
			fmt.Printf("    %-34s %14.6g %s\n", d.Name, res.Layer[d.Name], d.Unit)
		}
	}
	b, err := json.MarshalIndent(first, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return first, second, os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(b, '\n'), 0o644)
}

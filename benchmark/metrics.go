package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// End-to-end metric names, as the code that measures them writes them.
// Everything else about a metric — unit, direction, regression bound —
// and the list of per-layer metrics is in BENCHMARK.json only.
const (
	mRPS      = "sim_rps"
	mMaxRate  = "sim_max_rate_rps"
	mMeanUs   = "sim_mean_us"
	mP99Us    = "sim_p99_us"
	mOKFrac   = "ok_frac"
	mBootUs   = "sim_boot_us"
	mImageKB  = "image_kb"
	mMinMemMB = "sim_min_mem_mb"
	mHostNs   = "host_cns_per_req"
	mAllocB   = "host_alloc_b_per_req"
	mAllocs   = "host_allocs_per_req"
	mSetupS   = "setup_s"
)

// hostMetricNames are the end-to-end metrics measured on the host
// clock or allocator; the rest are simulated and must repeat exactly.
var hostMetricNames = map[string]bool{mHostNs: true, mAllocB: true, mAllocs: true, mSetupS: true}

// declaration is BENCHMARK.json: the contract between this benchmark
// and whatever runs it, and the one place metrics are declared. Units
// that start with "sim_" or end in "/sim_s" are virtual time read off
// simulated clocks. A workload that does not exercise a layer reports 0
// for that layer's metrics: "netstack did no work on udp-raw" is a
// finding, not a gap.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declared is the declaration the process runs under, loaded once at
// start-up.
var declared *declaration

func loadDeclaration(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	declared = &d
	return nil
}

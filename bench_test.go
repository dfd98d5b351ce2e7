package unikraft

// One testing.B benchmark per table and figure of the paper's
// evaluation. Each bench regenerates its experiment end to end and
// reports the headline metric via b.ReportMetric, so `go test -bench .`
// reproduces the entire evaluation. The rendered tables come from
// cmd/ukbench; EXPERIMENTS.md records paper-vs-measured.

import (
	"strconv"
	"strings"
	"testing"

	"unikraft/internal/experiments"
)

// runExperiment executes one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	env := experiments.DefaultEnv()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(env, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// metric extracts a numeric cell for ReportMetric: the first row whose
// first or second column contains rowKey; non-numeric suffixes
// (K/M/KB/MB/ms/us) are stripped.
func metric(res *experiments.Result, rowKey string, col int) float64 {
	for _, row := range res.Rows {
		if len(row) <= col {
			continue
		}
		match := strings.Contains(row[0], rowKey)
		if !match && len(row) > 1 {
			match = strings.Contains(row[1], rowKey)
		}
		if !match {
			continue
		}
		cell := strings.TrimRight(row[col], "KMBsmu%")
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			return v
		}
	}
	return 0
}

func BenchmarkTable1(b *testing.B) {
	res := runExperiment(b, "tab1")
	b.ReportMetric(metric(res, "unikraft-kvm", 2), "unikraft-syscall-cycles")
	b.ReportMetric(metric(res, "linux-kvm", 2), "linux-syscall-cycles")
}

func BenchmarkTable2(b *testing.B) {
	res := runExperiment(b, "tab2")
	b.ReportMetric(float64(len(res.Rows)), "libraries-ported")
}

func BenchmarkTable4(b *testing.B) {
	res := runExperiment(b, "tab4")
	b.ReportMetric(metric(res, "uknetdev-polling", 2)*1e3, "uknetdev-req/s")
	b.ReportMetric(metric(res, "lwip-sockets", 2)*1e3, "lwip-req/s")
}

func BenchmarkFig01(b *testing.B) {
	res := runExperiment(b, "fig1")
	b.ReportMetric(metric(res, "dependency edges", 1), "linux-edges")
}

func BenchmarkFig02(b *testing.B) {
	res := runExperiment(b, "fig2")
	b.ReportMetric(metric(res, "micro-libraries", 1), "nginx-libs")
}

func BenchmarkFig03(b *testing.B) {
	res := runExperiment(b, "fig3")
	b.ReportMetric(metric(res, "micro-libraries", 1), "hello-libs")
}

func BenchmarkFig05(b *testing.B) {
	res := runExperiment(b, "fig5")
	b.ReportMetric(metric(res, "supported by unikraft", 1), "syscalls-supported")
}

func BenchmarkFig06(b *testing.B) {
	res := runExperiment(b, "fig6")
	b.ReportMetric(metric(res, "Q1-2020", 5), "final-quarter-days")
}

func BenchmarkFig07(b *testing.B) {
	res := runExperiment(b, "fig7")
	b.ReportMetric(metric(res, "redis", 1), "redis-support-pct")
}

func BenchmarkFig08(b *testing.B) {
	res := runExperiment(b, "fig8")
	b.ReportMetric(metric(res, "helloworld", 3), "hello-dce-KB")
}

func BenchmarkFig09(b *testing.B) {
	res := runExperiment(b, "fig9")
	b.ReportMetric(metric(res, "unikraft", 1), "unikraft-hello-KB")
}

func BenchmarkFig10(b *testing.B) {
	res := runExperiment(b, "fig10")
	b.ReportMetric(metric(res, "firecracker", 3), "fc-total-ms")
}

func BenchmarkFig11(b *testing.B) {
	res := runExperiment(b, "fig11")
	b.ReportMetric(metric(res, "unikraft", 1), "hello-min-MB")
}

func BenchmarkFig12(b *testing.B) {
	res := runExperiment(b, "fig12")
	b.ReportMetric(metric(res, "unikraft-kvm", 1)*1e6, "redis-get-req/s")
}

func BenchmarkFig13(b *testing.B) {
	res := runExperiment(b, "fig13")
	b.ReportMetric(metric(res, "unikraft-kvm", 1)*1e3, "nginx-req/s")
}

func BenchmarkFig14(b *testing.B) {
	res := runExperiment(b, "fig14")
	b.ReportMetric(metric(res, "buddy", 1), "buddy-boot-ms")
	b.ReportMetric(metric(res, "bootalloc", 1), "bootalloc-boot-ms")
}

func BenchmarkFig15(b *testing.B) {
	res := runExperiment(b, "fig15")
	b.ReportMetric(metric(res, "tinyalloc", 1)*1e3, "tinyalloc-req/s")
}

func BenchmarkFig16(b *testing.B) {
	res := runExperiment(b, "fig16")
	b.ReportMetric(metric(res, "60000", 2), "tinyalloc-speedup-60k-pct")
}

func BenchmarkFig17(b *testing.B) {
	res := runExperiment(b, "fig17")
	b.ReportMetric(metric(res, "musl-native", 1), "musl-60k-seconds")
}

func BenchmarkFig18(b *testing.B) {
	res := runExperiment(b, "fig18")
	b.ReportMetric(metric(res, "tinyalloc", 2)*1e6, "tinyalloc-set-req/s")
}

func BenchmarkFig19(b *testing.B) {
	res := runExperiment(b, "fig19")
	b.ReportMetric(metric(res, "64", 1), "64B-vhost-user-Mpps")
}

func BenchmarkFig20(b *testing.B) {
	res := runExperiment(b, "fig20")
	b.ReportMetric(metric(res, "4", 1), "9pfs-4K-read-us")
}

func BenchmarkFig21(b *testing.B) {
	res := runExperiment(b, "fig21")
	b.ReportMetric(metric(res, "static", 2), "static-1GB-us")
}

func BenchmarkFig22(b *testing.B) {
	res := runExperiment(b, "fig22")
	b.ReportMetric(metric(res, "unikraft-shfs", 1), "shfs-open-cycles")
	b.ReportMetric(metric(res, "unikraft-vfs", 1), "vfs-open-cycles")
}

func BenchmarkText9pfsBoot(b *testing.B) {
	res := runExperiment(b, "txt1")
	b.ReportMetric(metric(res, "qemu", 1), "kvm-9pfs-mount-ms")
}

func BenchmarkZeroCopy(b *testing.B) {
	res := runExperiment(b, "zerocopy")
	b.ReportMetric(metric(res, "copy", 1)*1e3, "nginx-copy-req/s")
	b.ReportMetric(metric(res, "zerocopy+kick32", 1)*1e3, "nginx-zc-batched-req/s")
}

func BenchmarkServe(b *testing.B) {
	res := runExperiment(b, "serve")
	b.ReportMetric(metric(res, "poisson-steady", 4), "steady-warm-hit-pct")
	b.ReportMetric(metric(res, "poisson-steady", 8), "boot-p50-ms")
	b.ReportMetric(metric(res, "bursty-5x", 4), "bursty-warm-hit-pct")
}

func BenchmarkSnapboot(b *testing.B) {
	res := runExperiment(b, "snapboot")
	b.ReportMetric(metric(res, "bursty-1M-fork", 2), "bursty-fork-p99-ms")
	// nginx fork speedup: cold ms / fork ms from the sweep rows.
	var cold, fork float64
	for _, row := range res.Rows {
		if row[0] == "nginx" && row[1] == "cold" {
			cold, _ = strconv.ParseFloat(row[2], 64)
		}
		if row[0] == "nginx" && row[1] == "fork" {
			fork, _ = strconv.ParseFloat(row[2], 64)
		}
	}
	if fork > 0 {
		b.ReportMetric(cold/fork, "nginx-fork-speedup-x")
	}
}

// TestPublicAPI exercises the facade end to end (build, boot, min
// memory, experiment registry).
func TestPublicAPI(t *testing.T) {
	rt := NewRuntime()
	img, err := rt.Build(NewSpec("nginx",
		WithPlatform(PlatformKVM), WithDCE(), WithLTO()))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bytes < 700<<10 || img.Bytes > 900<<10 {
		t.Errorf("nginx dce+lto image = %d bytes, want ~832.8KB", img.Bytes)
	}
	vm, err := rt.Boot(NewSpec("nginx", WithDCE(), WithLTO(),
		WithVMM("firecracker"), WithMemory(128<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	if vm.Report.Total() <= 0 {
		t.Error("zero boot time")
	}
	if len(Experiments()) < 20 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
	for _, app := range Apps() {
		if _, err := rt.Build(NewSpec(app, WithPlatform(PlatformKVM))); err != nil {
			t.Errorf("Build(%s): %v", app, err)
		}
	}
	if _, err := rt.Build(NewSpec("no-such-app", WithPlatform(PlatformKVM))); err == nil {
		t.Error("unknown app built successfully")
	}
	if _, err := NewAllocator("tlsf", 1<<20); err != nil {
		t.Error(err)
	}
}

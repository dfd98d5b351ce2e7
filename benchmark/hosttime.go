package main

import (
	"runtime"
	"syscall"
	"time"
)

// Host metrics are what the simulator costs to run, so they are exposed
// to whatever else the box is doing. Two measures keep them usable: a
// fixed calibration kernel runs before and after every repetition and
// the times reported are scaled by how fast its best run of the
// invocation was, and the figure reported is the best repetition, not
// the mean.
//
// The kernel below is frozen: it is the yardstick, and a later change
// that edits it silently rescales every host metric against every
// earlier run. Do not touch it.
//
// Its table is 512 KB, resident in L2, so that it measures the core —
// clock, steal, a hyperthread neighbour — as the simulator's hot loops
// see it. An 8 MB table was measured first: its walk runs out of the
// shared last-level cache and DRAM, whose latency other tenants move by
// 10% and more from one invocation to the next without touching the
// simulator, so scaling by it added more spread than it removed.

const (
	calibTableWords = 128 << 10 // 128K x uint32 = 512 KB
	calibSteps      = 6_000_000
	// calibRefNs is what the kernel's fastest quarter, times four, takes
	// on the box the benchmark was sized on; host times are reported as
	// if the invocation had run at that speed.
	calibRefNs = 40_000_000
)

var calibTable []uint32

// calibWalk is how many steps a kernel run takes: calibSteps, except in
// the smoke test, which has no use for 40 ms of yardstick per
// repetition.
var calibWalk = calibSteps

// calibSink keeps the compiler from discarding the walk.
var calibSink uint32

func calibInit() {
	calibTable = make([]uint32, calibTableWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range calibTable {
		calibTable[i] = uint32(splitmix(&x))
	}
}

// calibrate runs the kernel once and returns its time: an xorshift walk
// whose next index depends on the word just loaded, so the chain is
// bound by load latency and integer work alike — the mix the simulator
// itself runs. The walk is timed in four quarters and the answer is
// four times the fastest: whatever else the box does comes in bursts,
// and a quarter is short enough to fall between them.
func calibrate() int64 {
	const mask = calibTableWords - 1
	x, idx := uint32(2463534242), uint32(0)
	best := int64(1) << 62
	for q := 0; q < 4; q++ {
		start := time.Now()
		for i := 0; i < calibWalk/4; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			idx = (calibTable[idx] + x) & mask
		}
		best = min(best, int64(time.Since(start)))
	}
	calibSink = idx
	return 4 * best
}

// hostStats is one repetition's raw host-side record.
type hostStats struct {
	setupNs, timedNs   int64 // wall clock, uncalibrated
	cpuNs              int64 // process CPU time over the timed section
	allocBytes, allocs uint64
	gcCycles           uint32
}

// hostClock splits a repetition into set-up and the timed section. The
// workload calls startTimed when its set-up is complete and the first
// timed request is about to be sent, and stopTimed after the last
// response; garbage from set-up is collected between the two, outside
// both.
type hostClock struct {
	start  time.Time
	timed  time.Time
	ms     runtime.MemStats
	cpu0   int64
	stats  hostStats
	inTime bool
}

func (c *hostClock) begin() {
	runtime.GC()
	c.start = time.Now()
}

func (c *hostClock) startTimed() {
	c.stats.setupNs = int64(time.Since(c.start))
	runtime.GC()
	runtime.ReadMemStats(&c.ms)
	c.cpu0 = processCPUNs()
	c.inTime = true
	c.timed = time.Now()
}

func (c *hostClock) stopTimed() {
	c.stats.timedNs = int64(time.Since(c.timed))
	c.stats.cpuNs = processCPUNs() - c.cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	c.stats.allocBytes = after.TotalAlloc - c.ms.TotalAlloc
	c.stats.allocs = after.Mallocs - c.ms.Mallocs
	c.stats.gcCycles = after.NumGC - c.ms.NumGC
	c.inTime = false
}

func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

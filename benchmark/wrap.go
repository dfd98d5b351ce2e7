package main

import (
	"sync"
	"time"

	"unikraft/internal/apps/httpd"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

// The decorators below are installed only in the traced run. Each
// implements an interface the program already programs against, opens a
// span around every call and forwards it unchanged, so tracing may cost
// host time but never a simulated cycle.

// tracedDevice wraps the server's virtio device. It keeps the
// zero-copy capability and the Pending probe the stack looks for, so
// the stack takes exactly the paths it takes on the bare device.
type tracedDevice struct {
	*uknetdev.VirtioNet
	tr *tracer
}

var _ uknetdev.ZeroCopyDevice = (*tracedDevice)(nil)

func (d *tracedDevice) TxBurst(q int, pkts []*uknetdev.Netbuf) (int, bool, error) {
	d.tr.enter(lUknetdev, "TxBurst")
	defer d.tr.exit()
	return d.VirtioNet.TxBurst(q, pkts)
}

func (d *tracedDevice) RxBurst(q int, pkts []*uknetdev.Netbuf) (int, bool, error) {
	d.tr.enter(lUknetdev, "RxBurst")
	defer d.tr.exit()
	return d.VirtioNet.RxBurst(q, pkts)
}

func (d *tracedDevice) RxBurstZC(q int, pkts []*uknetdev.Netbuf) (int, bool, error) {
	d.tr.enter(lUknetdev, "RxBurstZC")
	defer d.tr.exit()
	return d.VirtioNet.RxBurstZC(q, pkts)
}

func (d *tracedDevice) FlushTx() {
	d.tr.enter(lUknetdev, "FlushTx")
	defer d.tr.exit()
	d.VirtioNet.FlushTx()
}

// tracedAlloc wraps the guest heap and counts what crosses it.
type tracedAlloc struct {
	ukalloc.Allocator
	tr    *tracer
	bytes uint64 // bytes requested by Malloc/Realloc/Memalign
}

func (a *tracedAlloc) Malloc(n int) (ukalloc.Ptr, error) {
	a.tr.enter(lUkalloc, "Malloc")
	defer a.tr.exit()
	a.bytes += uint64(n)
	return a.Allocator.Malloc(n)
}

func (a *tracedAlloc) Free(p ukalloc.Ptr) error {
	a.tr.enter(lUkalloc, "Free")
	defer a.tr.exit()
	return a.Allocator.Free(p)
}

func (a *tracedAlloc) Realloc(p ukalloc.Ptr, n int) (ukalloc.Ptr, error) {
	a.tr.enter(lUkalloc, "Realloc")
	defer a.tr.exit()
	a.bytes += uint64(n)
	return a.Allocator.Realloc(p, n)
}

func (a *tracedAlloc) Memalign(align, n int) (ukalloc.Ptr, error) {
	a.tr.enter(lUkalloc, "Memalign")
	defer a.tr.exit()
	a.bytes += uint64(n)
	return a.Allocator.Memalign(align, n)
}

// tracedFiles wraps httpd's file backend. Sendfile hands pages to a
// callback that writes them to the socket; that part is the server's
// work again, so the callback runs in an apps span of its own.
type tracedFiles struct {
	httpd.FileBackend
	tr                      *tracer
	opens, notFound         uint64
	openCycles, closeCycles uint64
}

func (f *tracedFiles) Open(path string) (httpd.FileHandle, int64, error) {
	f.tr.enter(lVfscore, "Open")
	start := f.tr.cycles()
	h, size, err := f.FileBackend.Open(path)
	f.openCycles += f.tr.cycles() - start
	f.tr.exit()
	f.opens++
	if err != nil {
		f.notFound++
		return nil, 0, err
	}
	return &tracedHandle{FileHandle: h, f: f}, size, nil
}

type tracedHandle struct {
	httpd.FileHandle
	f *tracedFiles
}

func (h *tracedHandle) Sendfile(off, n int64, emit func([]byte) error) (int64, error) {
	tr := h.f.tr
	tr.enter(lVfscore, "Sendfile")
	defer tr.exit()
	return h.FileHandle.Sendfile(off, n, func(p []byte) error {
		tr.enter(lApps, "emit")
		defer tr.exit()
		return emit(p)
	})
}

func (h *tracedHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.tr.enter(lVfscore, "ReadAt")
	defer h.f.tr.exit()
	return h.FileHandle.ReadAt(p, off)
}

func (h *tracedHandle) Close() error {
	h.f.tr.enter(lVfscore, "Close")
	start := h.f.tr.cycles()
	err := h.FileHandle.Close()
	h.f.closeCycles += h.f.tr.cycles() - start
	h.f.tr.exit()
	return err
}

// tracedLoop wraps the event-loop engine a pool serves on. Handlers
// are the pool's code, the rest of Run is the engine's: the time spent
// inside handlers is charged to ukpool and the remainder to sim.
// Wrappers are cached per handler (the pool reschedules the same
// handler values), so a steady-state schedule allocates nothing extra.
type tracedLoop struct {
	sim.Loop
	tr         *tracer
	wrapped    map[sim.Handler]*tracedHandler
	maxPending int
	runNs      int64 // host time inside Run/Step
	startNs    int64 // when the loop first and last ran, relative to tr.t0
	endNs      int64
}

type tracedHandler struct {
	l *tracedLoop
	h sim.Handler
}

func (w *tracedHandler) Fire(now time.Duration) {
	tr := w.l.tr
	tr.setReq(int(w.l.Loop.Dispatched()))
	tr.enter(lUkpool, "event")
	w.h.Fire(now)
	tr.exit()
}

func (l *tracedLoop) wrap(h sim.Handler) sim.Handler {
	if _, isFunc := h.(sim.HandlerFunc); isFunc {
		return &tracedHandler{l: l, h: h} // func values cannot key a map
	}
	if w, ok := l.wrapped[h]; ok {
		return w
	}
	w := &tracedHandler{l: l, h: h}
	l.wrapped[h] = w
	return w
}

func (l *tracedLoop) notePending() {
	if n := l.Loop.Len(); n > l.maxPending {
		l.maxPending = n
	}
}

func (l *tracedLoop) ScheduleAt(t time.Duration, h sim.Handler) {
	l.Loop.ScheduleAt(t, l.wrap(h))
	l.notePending()
}

func (l *tracedLoop) ScheduleAfter(d time.Duration, h sim.Handler) {
	l.Loop.ScheduleAfter(d, l.wrap(h))
	l.notePending()
}

func (l *tracedLoop) At(t time.Duration, fn func(time.Duration)) {
	l.Loop.ScheduleAt(t, &tracedHandler{l: l, h: sim.HandlerFunc(fn)})
	l.notePending()
}

func (l *tracedLoop) After(d time.Duration, fn func(time.Duration)) {
	l.Loop.ScheduleAfter(d, &tracedHandler{l: l, h: sim.HandlerFunc(fn)})
	l.notePending()
}

// drive runs one engine call (Run, or one Step of a host that is served
// up to its crash instant) inside a sim span and notes when the loop
// was busy on the host clock.
func (l *tracedLoop) drive(name string, call func() bool) bool {
	begin := int64(time.Since(l.tr.t0))
	if l.runNs == 0 {
		l.startNs = begin
	}
	l.tr.enter(lSim, name)
	ok := call()
	l.tr.exit()
	l.endNs = int64(time.Since(l.tr.t0))
	l.runNs += l.endNs - begin
	return ok
}

func (l *tracedLoop) Step() bool { return l.drive("Step", l.Loop.Step) }

func (l *tracedLoop) Run() {
	l.drive("Run", func() bool { l.Loop.Run(); return true })
}

// loopFactory hands a fresh tracedLoop to every serve (and every shard
// and host loop of one), each with a tracer of its own because host
// loops run on their own goroutines.
type loopFactory struct {
	mu    sync.Mutex
	t0    time.Time
	loops []*tracedLoop
}

func (f *loopFactory) new() sim.Loop {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := &tracedLoop{Loop: sim.NewEventLoop(), wrapped: map[sim.Handler]*tracedHandler{},
		tr: newTracer(nil, f.t0, len(f.loops)+2)}
	f.loops = append(f.loops, l)
	return l
}

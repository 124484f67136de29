package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"finepack/internal/sim"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, and every repeat must generate identical inputs.
const setupRepeats = 9

// warmSeconds of untimed passes follow the first pass: the first few
// passes of a process run up to 20% slower while the heap grows to its
// steady size, a cost a long simulation pays once.
const warmSeconds = 2

// prepared is a workload after set-up and the untimed warm-up pass.
type prepared struct {
	b     *bundle
	c     *checker
	steps setupSteps // medians over the set-up repeats
	// setup is the median set-up CPU time, in seconds.
	setup float64
	// warm holds the warm-up pass's results, by op index (nil on error).
	warm []*sim.Result
}

// prepare builds the workload's inputs setupRepeats times, then runs
// every op untimed for warmSeconds so caches fill and lazy set-up
// finishes before anything is timed. The first pass's results give the
// simulated metrics.
func prepare(w *workload, seed int64, dir string) (*prepared, error) {
	var totals, gens, writes, builds []float64
	var b *bundle
	for i := 0; i < setupRepeats; i++ {
		t0 := cpuNow()
		nb, st, err := setup(w, seed, dir)
		d := cpuNow() - t0
		if err != nil {
			return nil, err
		}
		if b != nil {
			for k, in := range nb.inputs {
				if in.digest != b.inputs[k].digest {
					return nil, fmt.Errorf("%s: set-up %d generated a different %s input for the same seed", w.name, i, in.name)
				}
			}
		}
		b = nb
		totals = append(totals, d.Seconds())
		gens = append(gens, st.generate)
		writes = append(writes, st.write)
		builds = append(builds, st.build)
	}
	c, err := newChecker(w.name, seed, b.lossy)
	if err != nil {
		return nil, err
	}
	p := &prepared{
		b:     b,
		c:     c,
		setup: median(totals),
		steps: setupSteps{
			generate: median(gens),
			write:    median(writes),
			build:    median(builds),
		},
		warm: make([]*sim.Result, len(b.ops)),
	}
	for i := range b.ops {
		res, err := b.ops[i].run(nil)
		if c.check(&b.ops[i], res, err) {
			p.warm[i] = res
		}
	}
	timedLoop(p, warmSeconds)
	return p, nil
}

// loopStats is what a timed loop measured. Op times are process CPU
// time (see cpuNow); passWall is the wall-clock counterpart, for the
// human-readable table only.
type loopStats struct {
	passes int
	// passRate is each pass's replayed warp stores ÷ its op CPU time.
	passRate, passWall []float64
	// opTimes holds every sample of every op, by op index, in seconds.
	opTimes [][]float64
	// opSeconds and warpStores total the loop's op CPU time and the warp
	// stores its store-paradigm ops replayed.
	opSeconds  float64
	warpStores uint64
	// rt is the Go runtime's activity over the loop.
	rt runtimeDelta
	// passPeak is each pass's peak live heap, in bytes.
	passPeak []float64
}

// timedLoop runs whole passes over the workload's ops, one op at a time
// on this goroutine (a closed loop), until seconds of wall time have
// elapsed; at least one pass always runs. Whole passes keep every op's
// share of the measured time the same from run to run.
func timedLoop(p *prepared, seconds float64) loopStats {
	ops := p.b.ops
	st := loopStats{opTimes: make([][]float64, len(ops))}
	runtime.GC()
	var hw heapWatch
	hw.start()
	defer hw.stop()
	before := readRuntime()
	start := time.Now()
	for st.passes == 0 || time.Since(start).Seconds() < seconds {
		var passSec float64
		var passStores uint64
		wall := time.Now()
		for i := range ops {
			o := &ops[i]
			t0 := cpuNow()
			res, err := o.run(nil)
			d := (cpuNow() - t0).Seconds()
			if !p.c.check(o, res, err) {
				continue
			}
			st.opTimes[i] = append(st.opTimes[i], d)
			passSec += d
			if o.storeParadigm() {
				passStores += o.in.warpStores
			}
		}
		st.passes++
		st.opSeconds += passSec
		st.warpStores += passStores
		st.passPeak = append(st.passPeak, float64(hw.take()))
		if passSec > 0 {
			st.passRate = append(st.passRate, float64(passStores)/passSec)
			st.passWall = append(st.passWall, float64(passStores)/time.Since(wall).Seconds())
		}
	}
	st.rt = readRuntime().sub(before)
	return st
}

// cpuNow returns the CPU time all threads of the process have used, user
// plus system. The benchmark times ops in CPU time, not wall time: on a
// shared virtual machine, time the vCPU spends descheduled (steal) adds
// tens of percent of run-to-run noise to wall time and none to CPU time.
// CPU time still counts the GC's background workers on the other core.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opMedian is the median over the selected ops of each op's median CPU
// time, and the number of samples behind it. A median of per-op medians
// moves smoothly when ops change rank; the median of pooled samples
// jumps between ops of very different cost.
func (st *loopStats) opMedian(ops []op, keep func(*op) bool) (float64, int) {
	var meds []float64
	n := 0
	for i := range ops {
		if keep(&ops[i]) && len(st.opTimes[i]) > 0 {
			meds = append(meds, median(st.opTimes[i]))
			n += len(st.opTimes[i])
		}
	}
	return median(meds), n
}

// runtimeDelta is the Go runtime's allocation and CPU accounting between
// two reads.
type runtimeDelta struct {
	mallocs, allocBytes uint64
	gcCPU, busyCPU      float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

type runtimeSnapshot [6]metrics.Sample

func readRuntime() runtimeSnapshot {
	var s runtimeSnapshot
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return s
}

func (s runtimeSnapshot) sub(before runtimeSnapshot) runtimeDelta {
	u := func(i int) uint64 { return s[i].Value.Uint64() - before[i].Value.Uint64() }
	f := func(i int) float64 { return s[i].Value.Float64() - before[i].Value.Float64() }
	return runtimeDelta{
		mallocs:    u(0) + u(1),
		allocBytes: u(2),
		gcCPU:      f(3),
		busyCPU:    f(4) - f(5),
	}
}

// heapWatch records the peak live heap across GC cycles. A finalizer on
// a sentinel object runs after every GC that finds it unreachable; it
// reads the live heap the GC just marked and re-arms itself while its
// generation is current.
type heapWatch struct {
	gen  atomic.Uint64
	peak atomic.Uint64
}

type sentinel struct{ _ *int }

func (h *heapWatch) start() {
	h.peak.Store(0)
	h.arm(h.gen.Add(1))
}

// take returns the peak since the last take and starts a new one. It
// includes the live heap of the latest GC, so a pass that saw no GC
// still reports the heap it ran with.
func (h *heapWatch) take() uint64 {
	h.sample()
	return h.peak.Swap(0)
}

func (h *heapWatch) arm(gen uint64) {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if h.gen.Load() != gen {
			return
		}
		h.sample()
		h.arm(gen)
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch: the pending sentinel's finalizer no longer
// re-arms.
func (h *heapWatch) stop() { h.gen.Add(1) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// simulated computes the two simulated end-to-end metrics from the
// warm-up pass: the geomean over inputs of FinePack's Fig 9 speedup, and
// Σ P2P wire bytes ÷ Σ FinePack wire bytes (Fig 10).
func (p *prepared) simulated() (speedup, wireRatio float64) {
	var logSum float64
	var n int
	var p2pWire, fpWire float64
	for i, res := range p.warm {
		if res == nil {
			continue
		}
		switch p.b.ops[i].par {
		case sim.FinePack:
			logSum += math.Log(res.Speedup())
			n++
			fpWire += float64(res.WireBytes)
		case sim.P2P:
			p2pWire += float64(res.WireBytes)
		}
	}
	if n > 0 {
		speedup = math.Exp(logSum / float64(n))
	}
	if fpWire > 0 {
		wireRatio = p2pWire / fpWire
	}
	return speedup, wireRatio
}

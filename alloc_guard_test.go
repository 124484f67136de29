package finepack_test

import (
	"runtime"
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
	"finepack/internal/sim"
	"finepack/internal/tracestream"
)

// TestObsDisabledQueueWriteAllocFree pins the allocation contract the
// observability hooks must not erode: with no recorder attached, the dense
// remote-write-queue hot path stays allocation-free per store, exactly as
// BenchmarkQueueWriteDense established before internal/obs existed. A
// regression here means an instrumentation site put work on the disabled
// path.
func TestObsDisabledQueueWriteAllocFree(t *testing.T) {
	q, err := core.NewQueue(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var werr error
	allocs := testing.AllocsPerRun(8192, func() {
		if err := q.Write(core.Store{Dst: 1, Addr: uint64(i%4096) * 8, Size: 8}); err != nil {
			werr = err
		}
		i++
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if allocs != 0 {
		t.Fatalf("obs-disabled dense queue write allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSchedulerSteadyStateAllocFree pins the scheduler hot loop's
// allocation contract: with no probe attached, steady-state schedule+fire
// (After, then Run to drain) allocates nothing at all. Fired events go
// back to the scheduler's pool and the next After reuses them, so once
// the warm-up has carved the run's high-water mark of events and grown
// the calendar's buckets and cohort slice, no operation touches the
// allocator. A regression here means a closure, interface box, slice
// growth or unrecycled event crept onto the per-event path.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	s := des.NewScheduler()
	// Warm up: let the calendar's buckets, the cohort slice, and the event
	// pool reach steady-state capacity.
	for i := 0; i < 4096; i++ {
		s.After(des.Time(i%64)*des.Nanosecond, func() {})
	}
	s.Run()
	nop := func() {}
	i := 0
	allocs := testing.AllocsPerRun(8192, func() {
		s.After(des.Time(i%64)*des.Nanosecond, nop)
		i++
		if i%512 == 0 {
			s.Run()
		}
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.4f allocs/op, want 0", allocs)
	}
}

// TestObsDisabledCoalesceAllocParity checks the observed coalescing entry
// point costs nothing extra when no observer is attached: CoalesceObserved
// with a nil observer must allocate exactly what plain Coalesce does.
func TestObsDisabledCoalesceAllocParity(t *testing.T) {
	ws := gpusim.WarpStore{Dst: 1, ElemSize: 8}
	for i := 0; i < gpusim.WarpSize; i++ {
		ws.Addrs = append(ws.Addrs, uint64(i)*4096)
	}
	var cerr error
	plain := testing.AllocsPerRun(2048, func() {
		if _, err := gpusim.Coalesce(ws); err != nil {
			cerr = err
		}
	})
	observed := testing.AllocsPerRun(2048, func() {
		if _, err := gpusim.CoalesceObserved(ws, nil); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if observed != plain {
		t.Fatalf("CoalesceObserved(nil) allocates %.1f allocs/op, plain Coalesce %.1f — nil-observer path must be free",
			observed, plain)
	}
}

// TestRunAllocsPerWarpStore is the dynamic half of the hotalloc contract:
// a whole sim.RunSource over a small synthesized stream (SSSP-flavoured:
// 90% contiguous warps, 5% atomics), with the heap objects it allocates
// counted per warp store. The static analyzer cannot follow the
// scheduler-dispatched closures that drive the hot loop, so an allocation
// it misses there fails here instead. Events, packets and byte masks are
// recycled within each run, so what remains is the pools' ramp-up to the
// run's high-water mark plus a few objects per warp (the per-batch
// closures and source decoding). The bounds sit a little above the
// measured 4.0 (P2P) and 1.3 (FinePack), and far below the 27 and 11 of
// a run that allocates every event, packet and mask afresh.
func TestRunAllocsPerWarpStore(t *testing.T) {
	p := tracestream.Profile{
		Name:              "alloc-guard",
		NumGPUs:           4,
		Iterations:        16,
		Seed:              5,
		ComputeOpsPerIter: 2e7 * 512 / 4096,
		WarpsPerGPUIter:   512,
		SizeMix: []tracestream.SizeClass{
			{ElemSize: 4, Lanes: 32, Weight: 0.85},
			{ElemSize: 4, Lanes: 8, Weight: 0.15},
		},
		Contiguous:     0.9,
		AtomicFraction: 0.05,
	}
	cfg := sim.DefaultConfig()
	for _, c := range []struct {
		par sim.Paradigm
		max float64
	}{
		{sim.P2P, 4.5},
		{sim.FinePack, 1.6},
	} {
		run := func() float64 {
			src, err := tracestream.NewSynthSource(p)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := sim.RunSource(src, c.par, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / float64(p.NumWarpStores())
		}
		run() // warm package-level state (topology caches, type tables)
		if got := run(); got > c.max {
			t.Errorf("%s run allocates %.2f objects per warp store, want ≤ %.1f", c.par, got, c.max)
		} else {
			t.Logf("%s: %.2f allocs per warp store (bound %.1f)", c.par, got, c.max)
		}
	}
}

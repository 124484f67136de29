package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"finepack/internal/collective"
	"finepack/internal/faults"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/topo"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

// Input sizes. They are fixed constants of the benchmark: every figure it
// prints is "at this input size", and the committed reference fingerprints
// were generated from them. Each is chosen so one pass over a workload's
// ops takes about a second on a 2-core host, so a run holds ten or more
// passes.
const (
	// paperScale and paperIters size the eight paper workloads.
	paperScale = 0.25
	paperIters = 2
	// streamIters × streamWarps × 4 GPUs warp stores for stream-synth.
	streamIters = 16
	streamWarps = 512
	// podWarps per GPU per window, podPayload per ring rank.
	podWarps   = 4
	podPayload = 32 << 10
	podFanout  = 8
	// lossyRingPayload per ring rank on dgx2x8; lossyBER and lossyFaultSeed
	// fix the fault stream (only the workload inputs follow --seed).
	lossyRingPayload = 128 << 10
	lossyBER         = 1e-5
	lossyFaultSeed   = 7
)

// workload is one named benchmark workload: a set of inputs, each run
// under a fixed list of paradigms. Why each exists is in README.md and
// BENCHMARK.json.
type workload struct {
	name string
	// build generates the inputs for seed, writing any files under dir,
	// and reports how long each named set-up step took.
	build func(seed int64, dir string) (*bundle, setupSteps, error)
}

// setupSteps splits one set-up into the layer calls it made, in CPU
// seconds. Steps a workload does not take stay zero.
type setupSteps struct {
	generate float64 // workloads.*.Generate
	write    float64 // tracestream.WriteFile
	build    float64 // topo.Build
}

// bundle is one set-up's result: the inputs and the ops over them.
type bundle struct {
	inputs []*input
	ops    []op
	// lossy marks a workload whose every op must replay packets.
	lossy bool
	// graphs are the topologies the ops route over, for the route pass.
	graphs []*topo.Graph
	// collectives open the workload's collective sources, for the drain
	// pass.
	collectives []func() (trace.IterationSource, error)
	// streamFile is the v2 file stream-synth replays, "" elsewhere.
	streamFile string
}

// input is one simulator input: a materialized trace or a reopenable
// source.
type input struct {
	name  string
	trace *trace.Trace
	open  func() (trace.IterationSource, func() error, error)
	// warpStores is the input's warp-store count; digest hashes its
	// content (both from one full pass in set-up).
	warpStores uint64
	digest     uint64
}

// source returns a fresh source over the input and its closer.
func (in *input) source() (trace.IterationSource, func() error, error) {
	if in.trace != nil {
		return trace.NewSliceSource(in.trace), func() error { return nil }, nil
	}
	return in.open()
}

// op is one sim.Run / sim.RunSource call on one (input, paradigm) pair.
type op struct {
	in  *input
	par sim.Paradigm
	cfg sim.Config
}

func (o *op) key(workload string) string {
	return workload + "/" + o.in.name + "/" + o.par.String()
}

// storeParadigm reports whether the op replays the input's warp stores
// (DMA and Infinite move the bulk-copy encoding instead).
func (o *op) storeParadigm() bool {
	return o.par == sim.P2P || o.par == sim.FinePack
}

// run executes the op. A nil recorder is the plain sim.Run / RunSource
// path the timed loops measure.
func (o *op) run(rec *obs.Recorder) (*sim.Result, error) {
	if o.in.trace != nil {
		if rec == nil {
			return sim.Run(o.in.trace, o.par, o.cfg)
		}
		return sim.RunObserved(o.in.trace, o.par, o.cfg, rec)
	}
	src, closeSrc, err := o.in.open()
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	if rec == nil {
		return sim.RunSource(src, o.par, o.cfg)
	}
	return sim.RunSourceObserved(src, o.par, o.cfg, rec)
}

var benchWorkloads = []workload{
	{
		name: "paper-flat",
		build: func(seed int64, _ string) (*bundle, setupSteps, error) {
			var st setupSteps
			b := &bundle{}
			for _, w := range workloads.All() {
				in, d, err := generate(w, seed)
				if err != nil {
					return nil, st, err
				}
				st.generate += d.Seconds()
				b.inputs = append(b.inputs, in)
				for _, par := range sim.Fig9Paradigms() {
					b.ops = append(b.ops, op{in: in, par: par, cfg: sim.DefaultConfig()})
				}
			}
			return b, st, nil
		},
	},
	{
		name: "stream-synth",
		build: func(seed int64, dir string) (*bundle, setupSteps, error) {
			var st setupSteps
			synth, err := tracestream.NewSynthSource(streamProfile(seed))
			if err != nil {
				return nil, st, err
			}
			path := filepath.Join(dir, "stream-synth.fps")
			t0 := cpuNow()
			if err := tracestream.WriteFile(path, synth); err != nil {
				return nil, st, err
			}
			st.write = (cpuNow() - t0).Seconds()
			in := &input{name: "sssp-synth", open: func() (trace.IterationSource, func() error, error) {
				f, err := tracestream.OpenFile(path)
				if err != nil {
					return nil, nil, err
				}
				return f.Source(), f.Close, nil
			}}
			b := &bundle{inputs: []*input{in}, streamFile: path}
			for _, par := range []sim.Paradigm{sim.P2P, sim.FinePack} {
				b.ops = append(b.ops, op{in: in, par: par, cfg: sim.DefaultConfig()})
			}
			return b, st, nil
		},
	},
	{
		name: "pod-collective",
		build: func(seed int64, _ string) (*bundle, setupSteps, error) {
			var st setupSteps
			spec, g, d, err := buildTopology(topo.PresetPod4x8)
			if err != nil {
				return nil, st, err
			}
			st.build = d.Seconds()
			gpus := g.NumGPUs()
			openMix := func() (trace.IterationSource, error) {
				// One store window per ring step (2(N-1) steps), so no
				// window repeats and the seed's draws average out.
				synth, err := tracestream.NewSynthSource(tracestream.Profile{
					Name:              fmt.Sprintf("stores-f%d", podFanout),
					NumGPUs:           gpus,
					Iterations:        2 * (gpus - 1),
					Seed:              seed,
					ComputeOpsPerIter: 1e5,
					WarpsPerGPUIter:   podWarps,
					Contiguous:        0.5,
					Fanout:            podFanout,
				})
				if err != nil {
					return nil, err
				}
				ring, err := collective.NewSource(collective.Spec{
					Kind: collective.RingAllReduce, GPUs: gpus, PayloadBytes: podPayload,
				})
				if err != nil {
					return nil, err
				}
				return collective.NewMix(fmt.Sprintf("topo-mix-f%d", podFanout), synth, ring)
			}
			in := &input{name: "topo-mix", open: noClose(openMix)}
			cfg := sim.DefaultConfig()
			cfg.Topology = spec
			b := &bundle{
				inputs:      []*input{in},
				graphs:      []*topo.Graph{g},
				collectives: []func() (trace.IterationSource, error){openMix},
			}
			for _, par := range []sim.Paradigm{sim.P2P, sim.FinePack} {
				b.ops = append(b.ops, op{in: in, par: par, cfg: cfg})
			}
			return b, st, nil
		},
	},
	{
		name: "lossy-links",
		build: func(seed int64, _ string) (*bundle, setupSteps, error) {
			var st setupSteps
			cfg := sim.DefaultConfig()
			cfg.Faults = faults.Config{BER: lossyBER, Seed: lossyFaultSeed}
			b := &bundle{lossy: true}
			// pagerank and hit move the most bytes of the paper workloads,
			// and their simulated time under faults varies least by seed.
			for _, name := range []string{"pagerank", "hit"} {
				w, err := workloads.ByName(name)
				if err != nil {
					return nil, st, err
				}
				in, d, err := generate(w, seed)
				if err != nil {
					return nil, st, err
				}
				st.generate += d.Seconds()
				b.inputs = append(b.inputs, in)
				for _, par := range []sim.Paradigm{sim.P2P, sim.FinePack} {
					b.ops = append(b.ops, op{in: in, par: par, cfg: cfg})
				}
			}
			spec, g, d, err := buildTopology(topo.PresetDGX2x8)
			if err != nil {
				return nil, st, err
			}
			st.build = d.Seconds()
			openRing := func() (trace.IterationSource, error) {
				return collective.NewSource(collective.Spec{
					Kind: collective.RingAllReduce, GPUs: g.NumGPUs(), PayloadBytes: lossyRingPayload,
				})
			}
			ring := &input{name: "ring-dgx2x8", open: noClose(openRing)}
			b.inputs = append(b.inputs, ring)
			b.graphs = []*topo.Graph{g}
			b.collectives = append(b.collectives, openRing)
			topoCfg := cfg
			topoCfg.Topology = spec
			for _, par := range []sim.Paradigm{sim.P2P, sim.FinePack} {
				b.ops = append(b.ops, op{in: ring, par: par, cfg: topoCfg})
			}
			return b, st, nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			return &benchWorkloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamProfile is shaped like the repository's stream-smoke profile
// (SSSP-flavoured: 90% contiguous warps, 5% atomics), shrunk so an op
// takes under a second; compute per window shrinks with the warp count
// to keep the same communication-to-compute ratio.
func streamProfile(seed int64) tracestream.Profile {
	return tracestream.Profile{
		Name:              "sssp-synth",
		NumGPUs:           4,
		Iterations:        streamIters,
		Seed:              seed,
		ComputeOpsPerIter: 2e7 * streamWarps / 4096,
		WarpsPerGPUIter:   streamWarps,
		SizeMix: []tracestream.SizeClass{
			{ElemSize: 4, Lanes: 32, Weight: 0.85},
			{ElemSize: 4, Lanes: 8, Weight: 0.15},
		},
		Contiguous:     0.9,
		AtomicFraction: 0.05,
	}
}

// generate builds one paper workload's 4-GPU trace and times the call.
func generate(w workloads.Workload, seed int64) (*input, time.Duration, error) {
	t0 := cpuNow()
	tr, err := w.Generate(4, workloads.Params{Scale: paperScale, Iterations: paperIters, Seed: seed})
	d := cpuNow() - t0
	if err != nil {
		return nil, 0, err
	}
	return &input{name: w.Name(), trace: tr}, d, nil
}

// buildTopology resolves a preset and times topo.Build.
func buildTopology(name string) (*topo.Spec, *topo.Graph, time.Duration, error) {
	spec, err := topo.Preset(name)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := cpuNow()
	g, err := topo.Build(spec)
	return spec, g, cpuNow() - t0, err
}

func noClose(open func() (trace.IterationSource, error)) func() (trace.IterationSource, func() error, error) {
	return func() (trace.IterationSource, func() error, error) {
		src, err := open()
		return src, func() error { return nil }, err
	}
}

// setup builds a workload's inputs and makes one full pass over each to
// count its warp stores and hash its content. The pass is part of set-up
// time: it is the input validation every run pays once.
func setup(w *workload, seed int64, dir string) (*bundle, setupSteps, error) {
	b, st, err := w.build(seed, dir)
	if err != nil {
		return nil, st, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for _, in := range b.inputs {
		src, closeSrc, err := in.source()
		if err != nil {
			return nil, st, fmt.Errorf("%s: open %s: %w", w.name, in.name, err)
		}
		in.digest, in.warpStores, err = digest(src)
		closeSrc()
		if err != nil {
			return nil, st, fmt.Errorf("%s: read %s: %w", w.name, in.name, err)
		}
	}
	return b, st, nil
}

// digest hashes every field of every window a source yields, so two
// set-ups that generate different inputs are told apart.
func digest(src trace.IterationSource) (sum, warpStores uint64, err error) {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	m := src.Meta()
	fmt.Fprintf(h, "%s/%d/%d/%g|", m.Name, m.NumGPUs, m.Iterations, m.SingleGPUOpsPerIter)
	if err := src.Reset(); err != nil {
		return 0, 0, err
	}
	for {
		it, err := src.Next()
		if err == io.EOF {
			return h.Sum64(), warpStores, nil
		}
		if err != nil {
			return 0, 0, err
		}
		for g := range it.PerGPU {
			w := &it.PerGPU[g]
			buf = buf[:0]
			put(math.Float64bits(w.ComputeOps))
			for _, ws := range w.Stores {
				atomic := uint64(0)
				if ws.Atomic {
					atomic = 1
				}
				put(uint64(ws.Dst)<<40 | uint64(ws.ElemSize)<<8 | atomic)
				for _, a := range ws.Addrs {
					put(a)
				}
				warpStores++
			}
			for _, c := range w.Copies {
				put(uint64(c.Dst))
				put(uint64(c.Bytes))
				put(uint64(c.UsefulBytes))
			}
			h.Write(buf)
		}
	}
}

// removeAll deletes the benchmark's scratch files, reporting failures on
// stderr only: they do not change any measured result.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// componentMin is the least CPU time each component pass repeats for,
// so per-call times are far above the timer's resolution.
const componentMin = 250 * time.Millisecond

// profiledLayers are the simulator packages a CPU sample's leaf frame is
// attributed to; runtime collects the Go runtime, other everything else.
var profiledLayers = []string{
	"runtime", "des", "core", "gpusim", "interconnect", "topo", "faults",
	"memsystem", "tracestream", "collective", "sim", "other",
}

// flushMetrics names the FinePack flush causes reported per layer.
var flushMetrics = []struct {
	name  string
	cause core.FlushCause
}{
	{"window_miss", core.CauseWindowMiss},
	{"payload_full", core.CausePayloadFull},
	{"entries_full", core.CauseEntriesFull},
	{"release", core.CauseRelease},
	{"atomic", core.CauseAtomic},
	{"drain", core.CauseDrain},
}

// layerMetrics is the traced run: the workload's ops again with no
// tracing (the base for the overhead figure and the runtime counters),
// then under a CPU profile, then once each with an observability
// recorder for event counts, then the component passes that time each
// layer's own functions outside sim.Run. None of it feeds the end-to-end
// metrics.
func layerMetrics(p *prepared, secs float64, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	ops := p.b.ops

	// The untraced and traced loops split the run's time evenly.
	plain := timedLoop(p, secs/2)
	profPath := filepath.Join(dir, "cpu.pprof")
	traced, err := profiledLoop(p, secs/2, profPath)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, l := range profiledLayers {
		m[l+".cpu_share"] = shares[l]
	}
	m["bench.profile_overhead_frac"] = 1 - ratio(median(traced.passRate), median(plain.passRate))

	m["runtime.mallocs_per_warp_store"] = ratio(float64(plain.rt.mallocs), float64(plain.warpStores))
	m["runtime.bytes_per_warp_store"] = ratio(float64(plain.rt.allocBytes), float64(plain.warpStores))
	m["runtime.gc_cpu_frac"] = ratio(plain.rt.gcCPU, plain.rt.busyCPU)
	for _, par := range []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack, sim.Infinite} {
		m["sim.op_s."+opName(par)], _ = plain.opMedian(ops, func(o *op) bool { return o.par == par })
	}

	events := observedPass(p, m)
	m["des.events"] = float64(events)
	m["des.ns_per_event"] = ratio(plain.opSeconds/float64(plain.passes)*1e9, float64(events))

	mats, err := materialize(p.b.inputs)
	if err != nil {
		return nil, err
	}
	if m["gpusim.coalesce_ns_per_warp"], m["gpusim.transactions"], err = coalescePass(mats); err != nil {
		return nil, err
	}
	if m["core.write_ns_per_store"], err = queuePass(mats, sim.DefaultConfig().FinePack); err != nil {
		return nil, err
	}
	if m["tracestream.write_s"], m["tracestream.decode_mb_per_s"], err = streamPass(p, dir); err != nil {
		return nil, err
	}
	m["topo.route_ns"] = routePass(p.b)
	if m["collective.drain_s"], err = drainPass(p.b); err != nil {
		return nil, err
	}
	m["topo.build_s"] = p.steps.build
	m["workloads.generate_s"] = p.steps.generate
	return m, nil
}

// opName maps a paradigm to its metric-name segment.
func opName(par sim.Paradigm) string {
	if par == sim.Infinite {
		return "infinite"
	}
	return par.String()
}

func profiledLoop(p *prepared, secs float64, path string) (loopStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return loopStats{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return loopStats{}, err
	}
	st := timedLoop(p, secs)
	pprof.StopCPUProfile()
	return st, f.Close()
}

// cpuShares attributes the profile's samples to layers by the package of
// each sample's leaf frame, from `go tool pprof -top` flat times.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for fn, ms := range flat {
		shares[layerOf(fn)] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profile holds no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// parseTop reads `pprof -top -unit=ms` output into function → flat ms.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad flat value in %q", line)
		}
		flat[strings.Join(fields[5:], " ")] += ms
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no -top table in output")
	}
	return flat, nil
}

// layerOf maps a function symbol to its layer by package path.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations: keep the function path
	}
	pkg := fn
	if i := strings.IndexByte(fn[strings.LastIndexByte(fn, '/')+1:], '.'); i >= 0 {
		pkg = fn[:strings.LastIndexByte(fn, '/')+1+i]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "finepack/internal/"); ok {
		for _, l := range profiledLayers {
			if l == rest {
				return l
			}
		}
	}
	return "other"
}

// observedPass runs every op once with an observability recorder (never
// timed) and fills the per-layer counts from its results and registry.
// It returns the DES events one pass fires.
func observedPass(p *prepared, m map[string]float64) uint64 {
	var events, hops uint64
	var wire, useful, fpStores, fpPackets float64
	for i := range p.b.ops {
		o := &p.b.ops[i]
		// One sampler tick per op: the period outlasts every run.
		rec := obs.New(obs.Config{SampleEvery: 3600 * des.Second, MaxEvents: 1})
		res, err := o.run(rec)
		if !p.c.check(o, res, err) {
			continue // counted as failed; the run reports correct=false
		}
		snap := rec.Metrics().Snapshot()
		events += counterSum(snap, "finepack_sched_events_total") - 1
		hops += counterSum(snap, "finepack_edge_hops_total")

		m["interconnect.packets"] += float64(res.Packets)
		wire += float64(res.WireBytes)
		useful += float64(res.UsefulBytes)
		m["topo.inter_hop_bytes"] += float64(res.InterNodeHopBytes)
		m["faults.replays"] += float64(res.Replays)
		m["faults.replayed_wire_bytes"] += float64(res.ReplayedWireBytes)
		m["faults.recovered_stalls"] += float64(res.RecoveredStalls)
		if o.par == sim.FinePack {
			m["core.packets"] += float64(res.Packets)
			fpPackets += float64(res.Packets)
			fpStores += float64(res.StoresSent)
			for _, f := range flushMetrics {
				m["core.flushes."+f.name] += float64(res.Flushes[f.cause])
			}
		}
	}
	m["interconnect.wire_bytes"] = wire
	m["interconnect.goodput"] = ratio(useful, wire)
	m["core.stores_per_packet"] = ratio(fpStores, fpPackets)
	m["topo.edge_hops"] = float64(hops)
	return events
}

func counterSum(e *obs.Exposition, name string) uint64 {
	var n uint64
	for _, f := range e.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			v, err := strconv.ParseUint(s.Value, 10, 64)
			if err == nil {
				n += v
			}
		}
	}
	return n
}

// materialize loads every input into memory for the component passes.
func materialize(inputs []*input) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for _, in := range inputs {
		if in.trace != nil {
			out = append(out, in.trace)
			continue
		}
		src, closeSrc, err := in.open()
		if err != nil {
			return nil, err
		}
		tr, err := trace.Materialize(src)
		closeSrc()
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// repeatFor calls f until componentMin has elapsed, at least once, and
// returns the call count and the time taken.
func repeatFor(f func() error) (int, time.Duration, error) {
	start := cpuNow()
	for n := 1; ; n++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
		if d := cpuNow() - start; d >= componentMin {
			return n, d, nil
		}
	}
}

// coalesce turns one warp store into its L1 transactions as sim.Run
// does: atomics expand per lane, everything else coalesces.
func coalesce(c *gpusim.Coalescer, ws gpusim.WarpStore) ([]core.Store, error) {
	if ws.Atomic {
		return c.Expand(ws)
	}
	return c.Coalesce(ws)
}

// coalescePass times L1 coalescing of every warp store, through the
// scratch-reusing Coalescer sim.Run uses.
func coalescePass(mats []*trace.Trace) (nsPerWarp, transactions float64, err error) {
	var c gpusim.Coalescer
	var warps, tx int
	reps, d, err := repeatFor(func() error {
		warps, tx = 0, 0
		for _, tr := range mats {
			for i := range tr.Iterations {
				for _, w := range tr.Iterations[i].PerGPU {
					for _, ws := range w.Stores {
						out, err := coalesce(&c, ws)
						if err != nil {
							return err
						}
						warps++
						tx += len(out)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return ratio(float64(d.Nanoseconds()), float64(reps*warps)), float64(tx), nil
}

// queueStore is one coalesced transaction bound for a FinePack queue.
type queueStore struct {
	st     core.Store
	atomic bool
}

// queuePass times the FinePack remote write queue over each input's
// coalesced store stream: one queue per source GPU, Write (Atomic for
// atomics) per transaction and a release FlushAll at each iteration end,
// as the simulator's kernel-end release does.
func queuePass(mats []*trace.Trace, cfg core.Config) (float64, error) {
	// streams[t][g][i] is GPU g's coalesced stream in iteration i of mats[t].
	streams := make([][][][]queueStore, len(mats))
	var c gpusim.Coalescer
	stores := 0
	for t, tr := range mats {
		streams[t] = make([][][]queueStore, tr.NumGPUs)
		for g := range streams[t] {
			streams[t][g] = make([][]queueStore, len(tr.Iterations))
		}
		for i := range tr.Iterations {
			for g, w := range tr.Iterations[i].PerGPU {
				var s []queueStore
				for _, ws := range w.Stores {
					out, err := coalesce(&c, ws)
					if err != nil {
						return 0, err
					}
					for _, st := range out {
						s = append(s, queueStore{st, ws.Atomic})
					}
				}
				streams[t][g][i] = s
				stores += len(s)
			}
		}
	}
	packets := 0
	emit := func(*core.Packet) { packets++ }
	reps, d, err := repeatFor(func() error {
		for _, perGPU := range streams {
			for _, iters := range perGPU {
				q, err := core.NewQueue(cfg, emit)
				if err != nil {
					return err
				}
				for _, s := range iters {
					for _, qs := range s {
						if qs.atomic {
							err = q.Atomic(qs.st)
						} else {
							err = q.Write(qs.st)
						}
						if err != nil {
							return err
						}
					}
					q.FlushAll(core.CauseRelease)
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if stores > 0 && packets == 0 {
		return 0, fmt.Errorf("queue pass emitted no packets")
	}
	return ratio(float64(d.Nanoseconds()), float64(reps*stores)), nil
}

// streamPass reports the v2 trace write time for the workload's inputs
// and the decode rate of draining them through tracestream.OpenFile and
// Source().Next. stream-synth's file was written in set-up, so its write
// time is the set-up median; other workloads write theirs here.
func streamPass(p *prepared, dir string) (writeS, mbPerS float64, err error) {
	files := []string{p.b.streamFile}
	writeS = p.steps.write
	if p.b.streamFile == "" {
		files = nil
		t0 := cpuNow()
		for i, in := range p.b.inputs {
			src, closeSrc, err := in.source()
			if err != nil {
				return 0, 0, err
			}
			path := filepath.Join(dir, fmt.Sprintf("input-%d.fps", i))
			err = tracestream.WriteFile(path, src)
			closeSrc()
			if err != nil {
				return 0, 0, err
			}
			files = append(files, path)
		}
		writeS = (cpuNow() - t0).Seconds()
	}
	var size int64
	reps, d, err := repeatFor(func() error {
		size = 0
		for _, path := range files {
			f, err := tracestream.OpenFile(path)
			if err != nil {
				return err
			}
			size += f.Size()
			src := f.Source()
			for {
				_, err = src.Next()
				if err != nil {
					break
				}
			}
			f.Close()
			if err != io.EOF {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return writeS, ratio(float64(size)*float64(reps)/1e6, d.Seconds()), nil
}

// routePass times topo.Graph.Route over every ordered GPU pair of the
// workload's topologies; 0 on the flat fabric.
func routePass(b *bundle) float64 {
	if len(b.graphs) == 0 {
		return 0
	}
	var calls, hops int
	reps, d, _ := repeatFor(func() error {
		calls = 0
		for _, g := range b.graphs {
			n := g.NumGPUs()
			for s := 0; s < n; s++ {
				for t := 0; t < n; t++ {
					if s != t {
						hops += len(g.Route(s, t))
						calls++
					}
				}
			}
		}
		return nil
	})
	if hops == 0 {
		return 0
	}
	return ratio(float64(d.Nanoseconds()), float64(reps*calls))
}

// drainPass times one full Reset-and-Next drain of each of the workload's
// collective sources; 0 when it has none.
func drainPass(b *bundle) (float64, error) {
	if len(b.collectives) == 0 {
		return 0, nil
	}
	var srcs []trace.IterationSource
	for _, open := range b.collectives {
		src, err := open()
		if err != nil {
			return 0, err
		}
		srcs = append(srcs, src)
	}
	reps, d, err := repeatFor(func() error {
		for _, src := range srcs {
			if err := src.Reset(); err != nil {
				return err
			}
			for {
				_, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return d.Seconds() / float64(reps), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Command perfbench is the repository's benchmark. It runs one named
// workload of simulator runs as a closed loop on one goroutine for a
// fixed time, checks every run's output, and prints the workload's
// end-to-end metrics, or with -trace 1 its per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 416, "failed": 0, "metrics": {"setup_s": {"value": 0.21, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a run with -trace 0 reports.
var endToEnd = []metricSpec{
	{"warp_stores_per_s", "1/s"},
	{"op_s_p50", "s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"fp_speedup_geomean", "x"},
	{"p2p_over_fp_wire_x", "x"},
}

// perLayer are the metrics a run with -trace 1 reports.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"runtime.mallocs_per_warp_store", "count"},
		{"runtime.bytes_per_warp_store", "B"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"des.events", "count"},
		{"des.ns_per_event", "ns"},
		{"core.packets", "count"},
		{"core.stores_per_packet", "ratio"},
	}
	for _, f := range flushMetrics {
		specs = append(specs, metricSpec{"core.flushes." + f.name, "count"})
	}
	specs = append(specs, []metricSpec{
		{"core.write_ns_per_store", "ns"},
		{"gpusim.coalesce_ns_per_warp", "ns"},
		{"gpusim.transactions", "count"},
		{"interconnect.packets", "count"},
		{"interconnect.wire_bytes", "B"},
		{"interconnect.goodput", "ratio"},
		{"topo.route_ns", "ns"},
		{"topo.build_s", "s"},
		{"topo.edge_hops", "count"},
		{"topo.inter_hop_bytes", "B"},
		{"faults.replays", "count"},
		{"faults.replayed_wire_bytes", "B"},
		{"faults.recovered_stalls", "count"},
		{"tracestream.decode_mb_per_s", "MB/s"},
		{"tracestream.write_s", "s"},
		{"workloads.generate_s", "s"},
		{"collective.drain_s", "s"},
		{"sim.op_s.p2p", "s"},
		{"sim.op_s.dma", "s"},
		{"sim.op_s.finepack", "s"},
		{"sim.op_s.infinite", "s"},
		{"bench.profile_overhead_frac", "ratio"},
	}...)
	for _, l := range profiledLayers {
		specs = append(specs, metricSpec{l + ".cpu_share", "ratio"})
	}
	return specs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-flat, stream-synth, pod-collective or lossy-links")
	seed := fs.Int64("seed", referenceSeed, "input generation seed")
	secs := fs.Float64("seconds", 20, "how long the timed loop runs; 0 runs one pass")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
	workdir := fs.String("workdir", ".bench_build/work", "directory for scratch files, removed on exit")
	writeRef := fs.String("write-reference", "", "regenerate the reference fingerprints into this file at the reference seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *secs < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds non-negative, and no positional arguments")
		return 2
	}
	// One goroutine drives the ops; the GC's workers get the second core.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(dir)

	if *writeRef != "" {
		if err := writeReference(*writeRef, dir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, notes, err := measure(w, *seed, *secs, *traced == 1, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d\n", w.name, *seed, *traced)
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer()
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "  %-32s %-14.6g %-6s %s\n", s.name, res.Metrics[s.name].Value, s.unit, notes[s.name])
	}
	fmt.Fprintf(stdout, "  %-32s %-14.6g %-6s %d of %d ops\n", "fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and returns its result line plus a note per
// metric for the human-readable table.
func measure(w *workload, seed int64, secs float64, traced bool, dir string) (*result, map[string]string, error) {
	p, err := prepare(w, seed, dir)
	if err != nil {
		return nil, nil, err
	}
	values := map[string]float64{}
	notes := map[string]string{}
	var specs []metricSpec
	if traced {
		if values, err = layerMetrics(p, secs, dir); err != nil {
			return nil, nil, err
		}
		specs = perLayer()
	} else {
		st := timedLoop(p, secs)
		var n int
		values["warp_stores_per_s"] = median(st.passRate)
		notes["warp_stores_per_s"] = fmt.Sprintf("per CPU second, median of %d passes (per wall second: %.6g)", st.passes, median(st.passWall))
		values["op_s_p50"], n = st.opMedian(p.b.ops, (*op).storeParadigm)
		notes["op_s_p50"] = fmt.Sprintf("CPU, median of P2P/FinePack per-op medians, %d samples", n)
		values["peak_heap_mb"] = median(st.passPeak) / 1e6
		notes["peak_heap_mb"] = "median of per-pass peaks"
		values["setup_s"] = p.setup
		notes["setup_s"] = fmt.Sprintf("CPU, median of %d set-ups", setupRepeats)
		values["fp_speedup_geomean"], values["p2p_over_fp_wire_x"] = p.simulated()
		notes["fp_speedup_geomean"] = "simulated"
		notes["p2p_over_fp_wire_x"] = "simulated"
		specs = endToEnd
	}
	res := &result{
		Correct:   p.c.failed == 0,
		Attempted: p.c.attempted,
		Failed:    p.c.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
	}
	if len(values) != len(specs) {
		return nil, nil, fmt.Errorf("measured %d metrics, reporting %d", len(values), len(specs))
	}
	return res, notes, nil
}

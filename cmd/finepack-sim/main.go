// Command finepack-sim runs the paper's experiments and prints each
// table/figure's rows. Usage:
//
//	finepack-sim [flags] <experiment>
//
// Every section of the report (experiments.Catalogue) is a verb; run
// without arguments for the full list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"runtime"
	"runtime/pprof"

	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/faults"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/workloads"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "workload problem-size multiplier")
		iters     = flag.Int("iters", 3, "iterations per workload")
		seed      = flag.Int64("seed", 1, "trace generation seed")
		gpus      = flag.Int("gpus", 4, "number of GPUs")
		ber       = flag.Float64("ber", 0, "per-link bit-error rate injected into every run (0 = ideal links)")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection random seed")
		degrade   = flag.String("degrade", "", "persistent link degradation src:dst:fraction[@us], '*' endpoint wildcards (e.g. '0:1:0.5@10')")
		parallel  = flag.Int("parallel", 0, "independent simulation runs to execute concurrently (0 = GOMAXPROCS, 1 = serial)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.BoolVar(&chart, "chart", false, "also render bar charts for fig9/fig11")
	flag.BoolVar(&jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	flag.BoolVar(&csvOut, "csv", false, "emit CSV instead of tables")
	flag.StringVar(&svgDir, "svg", "", "also write figure SVGs into this directory")
	registerObserveFlags()
	registerStreamFlags()
	registerTopoFlags()
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cfg := sim.DefaultConfig()
	cfg.Faults.BER = *ber
	cfg.Faults.Seed = *faultSeed
	var topoErr error
	if resolvedTopo, topoErr = resolveTopo(); topoErr != nil {
		fmt.Fprintln(os.Stderr, "finepack-sim:", topoErr)
		os.Exit(2)
	}
	cfg.Topology = resolvedTopo
	if resolvedTopo != nil && *gpus == 4 {
		// The topology fixes the system size unless -gpus overrides it.
		*gpus = resolvedTopo.NumGPUs()
	}
	if *degrade != "" {
		d, err := parseDegrade(*degrade)
		if err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
		cfg.Faults.Degradations = append(cfg.Faults.Degradations, d)
	}
	suite := experiments.New(
		cfg,
		workloads.Params{Scale: *scale, Iterations: *iters, Seed: *seed},
		*gpus,
	)
	suite.Parallelism = *parallel
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
	}
	err := run(suite, flag.Arg(0))
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if werr := writeHeapProfile(*memProf); werr != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", werr)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "finepack-sim:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap after a final GC so the profile
// reflects live retained memory, not transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// parseDegrade parses a -degrade spec: src:dst:fraction, optionally
// suffixed @us for the onset time. '*' on an endpoint matches every GPU.
func parseDegrade(spec string) (faults.Degradation, error) {
	var d faults.Degradation
	body, at, hasAt := strings.Cut(spec, "@")
	parts := strings.Split(body, ":")
	if len(parts) != 3 {
		return d, fmt.Errorf("bad -degrade %q: want src:dst:fraction[@us]", spec)
	}
	endpoint := func(s string) (int, error) {
		if s == "*" {
			return -1, nil
		}
		return strconv.Atoi(s)
	}
	var err error
	if d.Link.Src, err = endpoint(parts[0]); err != nil {
		return d, fmt.Errorf("bad -degrade source %q: %v", parts[0], err)
	}
	if d.Link.Dst, err = endpoint(parts[1]); err != nil {
		return d, fmt.Errorf("bad -degrade destination %q: %v", parts[1], err)
	}
	if d.BandwidthFraction, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return d, fmt.Errorf("bad -degrade fraction %q: %v", parts[2], err)
	}
	if hasAt {
		us, err := strconv.ParseFloat(at, 64)
		if err != nil || us < 0 {
			return d, fmt.Errorf("bad -degrade onset %q: want microseconds", at)
		}
		d.At = des.Time(us * float64(des.Microsecond))
	}
	return d, nil
}

func usage() {
	writeUsage(os.Stderr)
	flag.PrintDefaults()
}

// writeUsage lists every verb: the catalogue entries in report order, the
// CLI-only extras, then the verbs driven by their own flags.
func writeUsage(w io.Writer) {
	fmt.Fprint(w, "usage: finepack-sim [flags] <experiment>\n\nexperiments (the report's sections, in order):\n")
	for _, e := range experiments.Catalogue() {
		fmt.Fprintf(w, "  %-22s %s\n", e.Name, e.Heading)
	}
	fmt.Fprint(w, "\nother experiments:\n")
	for _, e := range experiments.Extras() {
		fmt.Fprintf(w, "  %-22s %s\n", e.Name, e.Heading)
	}
	fmt.Fprint(w, `  all                    every report section above, in order
  ablations              the three ablation-* sweeps
  report                 one self-contained markdown report of every section
  observe                one instrumented run; write -trace-json / -metrics-out /
                         -timeline-svg artifacts (workload/paradigm via
                         -trace-workload, -trace-paradigm)
  stream                 one run fed from a trace file or synthesis profile
                         (-stream-trace / -stream-synth, paradigm via
                         -stream-paradigm); streams in O(window) memory
  topo-crossover         goodput vs store fanout on a hierarchical multi-hop fabric
                         while a ring AllReduce shares it (default -topo pod4x8)
  collective             one synthesized collective (ring/tree AllReduce, fused
                         GEMM) under p2p and finepack, honoring -topo

flags:
`)
}

// flagVerbs are the verbs outside the catalogue; each reads its own flags.
var flagVerbs = map[string]func(*experiments.Suite) error{
	"report":         func(s *experiments.Suite) error { return s.WriteReport(os.Stdout) },
	"observe":        showObserve,
	"stream":         showStream,
	"topo-crossover": showTopoCrossover,
	"collective":     showCollective,
}

// resolve maps a verb to what it runs, without running anything: a
// flag-driven verb, or the entries it selects — one by name, every
// catalogue entry for `all`, the ablation-* entries for `ablations`.
func resolve(name string) (func(*experiments.Suite) error, error) {
	if f, ok := flagVerbs[name]; ok {
		return f, nil
	}
	var picked []experiments.Entry
	for _, e := range experiments.Catalogue() {
		if name == e.Name || name == "all" || name == "ablations" && strings.HasPrefix(e.Name, "ablation-") {
			picked = append(picked, e)
		}
	}
	for _, e := range experiments.Extras() {
		if name == e.Name {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return func(s *experiments.Suite) error {
		for i, e := range picked {
			if i > 0 {
				fmt.Println()
			}
			out, err := e.Run(s)
			if err == nil {
				err = emit(e.Name, out)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}, nil
}

func run(s *experiments.Suite, name string) error {
	f, err := resolve(name)
	if err != nil {
		return err
	}
	return f(s)
}

// chart enables supplementary bar-chart rendering; jsonOut switches the
// output to one JSON document per experiment.
var (
	chart   bool
	jsonOut bool
	csvOut  bool
	svgDir  string
)

// writeSVG renders a figure into svgDir.
func writeSVG(name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(svgDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(svgDir, name+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return f.Sync()
}

func render(t *stats.Table) error {
	if csvOut {
		return t.WriteCSV(os.Stdout)
	}
	t.Render(os.Stdout)
	return nil
}

// emit writes one experiment's output: its SVG into -svg DIR, then either
// a JSON document with the raw data (-json) or the rendered table, then
// the bar chart when -chart asks for one.
func emit(name string, out experiments.Output) error {
	if out.SVG != nil && svgDir != "" {
		if err := writeSVG(name, out.SVG); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"experiment": name, "data": out.Data}); err != nil {
			return err
		}
	} else if err := render(out.Table); err != nil {
		return err
	}
	if chart && out.Chart != nil {
		out.Chart.Render(os.Stdout)
	}
	return nil
}

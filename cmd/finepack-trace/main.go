// Command finepack-trace generates, inspects and summarizes workload
// traces — the offline counterpart of the NVBit collection step the paper
// describes. Usage:
//
//	finepack-trace gen  -workload sssp -o sssp.fps [flags]
//	finepack-trace info sssp.fps
//	finepack-trace hist sssp.fps
//	finepack-trace synth -profile prof.json -o big.fps
//
// Trace files are chunked, seekable v2 streams (DESIGN.md §14).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = gen(os.Args[2:])
	case "info":
		err = infoCmd(os.Args[2:])
	case "hist":
		err = withTrace(os.Args[2:], hist)
	case "describe":
		err = withTrace(os.Args[2:], describe)
	case "replay":
		err = replay(os.Args[2:])
	case "synth":
		err = synth(os.Args[2:])
	case "json":
		err = withTrace(os.Args[2:], func(tr *trace.Trace) error {
			return tr.SaveJSON(os.Stdout)
		})
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "finepack-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: finepack-trace <command> [flags]

commands:
  gen   -workload <name> -o <file> [-gpus N] [-scale F] [-iters N] [-seed N]
        generate a workload trace and write it to a v2 stream file
        workloads: %s
  info      <file>  print trace summary from the header and seek index,
                    without decoding the body
  hist      <file>  print the store-size histogram (Fig 4 view)
  describe  <file>  print paradigm-determining characteristics (sizes,
                    redundancy, intensity, pattern coverage)
  replay    [-paradigm name] [-trace-json f] [-metrics-out f] <file>
                    simulate the trace (default: all paradigms) and print
                    timing/traffic results in O(window) memory; the obs
                    flags record one instrumented run (they require
                    -paradigm)
  synth     -profile <json> -o <out>
                    expand a statistical synthesis profile into a v2 stream
                    file, one iteration window at a time
  json      <file>  export the trace as JSON
`, strings.Join(workloads.Names(), " "))
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		name  = fs.String("workload", "", "workload name")
		out   = fs.String("o", "", "output file")
		gpus  = fs.Int("gpus", 4, "number of GPUs")
		scale = fs.Float64("scale", 1.0, "problem-size multiplier")
		iters = fs.Int("iters", 3, "iterations")
		seed  = fs.Int64("seed", 1, "generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *out == "" {
		return fmt.Errorf("gen requires -workload and -o")
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		return err
	}
	tr, err := w.Generate(*gpus, workloads.Params{Scale: *scale, Iterations: *iters, Seed: *seed})
	if err != nil {
		return err
	}
	if err := tracestream.WriteFile(*out, trace.NewSliceSource(tr)); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d GPUs, %d iterations, %d warp stores\n",
		*out, tr.NumGPUs, len(tr.Iterations), tr.NumWarpStores())
	return nil
}

// withTrace materializes a trace file for whole-trace analysis commands.
// Streaming commands (replay, synth) use sources directly and never
// materialize.
func withTrace(args []string, fn func(*trace.Trace) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected one trace file argument")
	}
	f, err := tracestream.OpenFile(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Materialize(f.Source())
	if err != nil {
		return err
	}
	return fn(tr)
}

func infoCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("expected one trace file argument")
	}
	f, err := tracestream.OpenFile(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return info(f)
}

// info summarizes a v2 stream from the header and seek index alone — no
// iteration chunk is decoded, so a multi-gigabyte file answers in
// O(iterations) time and memory.
func info(f *tracestream.File) error {
	m := f.Meta()
	fmt.Printf("format:      chunked stream v2\n")
	fmt.Printf("workload:    %s\n", m.Name)
	fmt.Printf("gpus:        %d\n", m.NumGPUs)
	fmt.Printf("iterations:  %d\n", m.Iterations)
	fmt.Printf("warp stores: %d\n", f.NumWarpStores())
	fmt.Printf("file size:   %s\n", stats.HumanBytes(uint64(f.Size())))

	t := stats.NewTable("per-iteration chunks (from seek index)",
		"iter", "offset", "bytes", "warp stores")
	for i := 0; i < m.Iterations; i++ {
		off, size, stores := f.IterInfo(i)
		t.AddRow(i, off, size, stores)
	}
	t.Render(os.Stdout)
	return nil
}

func synth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	var (
		profile = fs.String("profile", "", "synthesis profile JSON file")
		out     = fs.String("o", "", "output stream file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profile == "" || *out == "" {
		return fmt.Errorf("synth requires -profile and -o")
	}
	pf, err := os.Open(*profile)
	if err != nil {
		return err
	}
	p, err := tracestream.ParseProfile(pf)
	pf.Close()
	if err != nil {
		return err
	}
	src, err := tracestream.NewSynthSource(*p)
	if err != nil {
		return err
	}
	if err := tracestream.WriteFile(*out, src); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s, %d GPUs, %d iterations, %d warp stores\n",
		*out, p.Name, p.NumGPUs, p.Iterations, p.NumWarpStores())
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	par := fs.String("paradigm", "", "paradigm to replay (default: all)")
	traceJSON := fs.String("trace-json", "", "write a Chrome/Perfetto trace-event JSON file (requires -paradigm)")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus text-exposition metrics file (requires -paradigm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay expects one trace file")
	}
	observing := *traceJSON != "" || *metricsOut != ""
	if observing && *par == "" {
		return fmt.Errorf("-trace-json/-metrics-out record a single run; pick one with -paradigm")
	}
	f, err := tracestream.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	src := f.Source()
	m := src.Meta()
	paradigms := []sim.Paradigm{
		sim.P2P, sim.DMA, sim.FinePack, sim.WriteCombining,
		sim.GPS, sim.UM, sim.RemoteRead, sim.Infinite,
	}
	if *par != "" {
		p, err := sim.ParadigmFromString(*par)
		if err != nil {
			return err
		}
		paradigms = []sim.Paradigm{p}
	}
	cfg := sim.DefaultConfig()
	t := stats.NewTable(fmt.Sprintf("replay of %s (%d GPUs)", m.Name, m.NumGPUs),
		"paradigm", "time", "speedup", "wire bytes", "packets")
	for _, p := range paradigms {
		var rec *obs.Recorder
		if observing {
			rec = obs.New(obs.Config{})
		}
		res, err := sim.RunSourceObserved(src, p, cfg, rec)
		if err != nil {
			return err
		}
		t.AddRow(p.String(), res.Time.String(),
			fmt.Sprintf("%.2fx", res.Speedup()), res.WireBytes, res.Packets)
		if *traceJSON != "" {
			if err := writeArtifact(*traceJSON, rec.WriteTrace); err != nil {
				return err
			}
		}
		if *metricsOut != "" {
			if err := writeArtifact(*metricsOut, rec.WriteMetrics); err != nil {
				return err
			}
		}
	}
	t.Render(os.Stdout)
	return nil
}

// writeArtifact streams one observability artifact into a freshly created
// file.
func writeArtifact(path string, render func(io.Writer) error) error {
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

func describe(tr *trace.Trace) error {
	c, err := trace.Describe(tr)
	if err != nil {
		return err
	}
	t := stats.NewTable(fmt.Sprintf("%s characteristics", tr.Name),
		"property", "value")
	t.AddRow("warp stores", c.WarpStores)
	t.AddRow("L1-egress stores", c.Stores)
	t.AddRow("atomic warps", c.Atomics)
	t.AddRow("mean store size", fmt.Sprintf("%.0fB", c.MeanStoreBytes))
	t.AddRow("≤32B fraction", fmt.Sprintf("%.0f%%", c.Sub32Fraction*100))
	t.AddRow("pushed bytes", c.StoreBytes)
	t.AddRow("unique bytes", c.UniqueBytes)
	t.AddRow("redundancy", fmt.Sprintf("%.2fx", c.RedundancyX))
	t.AddRow("memcpy bytes (useful)", fmt.Sprintf("%d (%d)", c.CopyBytes, c.CopyUseful))
	t.AddRow("compute ops/unique byte", fmt.Sprintf("%.0f", c.ComputeOpsPerByte))
	t.AddRow("communicating pairs", fmt.Sprintf("%d of %d", c.ActivePairs, c.MaxPairs))
	t.Render(os.Stdout)
	return nil
}

func hist(tr *trace.Trace) error {
	h, err := tr.StoreSizeHistogram()
	if err != nil {
		return err
	}
	labels, fracs := h.Buckets()
	t := stats.NewTable(
		fmt.Sprintf("%s: %d L1-egress stores, mean %.0fB", tr.Name, h.Total(), h.MeanSize()),
		"bucket", "fraction")
	for i, l := range labels {
		t.AddRow(l, fmt.Sprintf("%.1f%%", fracs[i]*100))
	}
	t.Render(os.Stdout)
	return nil
}

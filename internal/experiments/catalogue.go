package experiments

import (
	"io"

	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/topo"
)

// Output is one experiment's result in every form a front end renders.
type Output struct {
	// Data is the raw result, encoded as-is by `finepack-sim -json`.
	Data any
	// Table is the rendered rows: the report section body and the CLI's
	// default output.
	Table *stats.Table
	// SVG, when set, renders the figure (`finepack-sim -svg DIR`).
	SVG func(io.Writer) error
	// Chart, when set, is the supplementary bar chart (`-chart`).
	Chart *stats.BarChart
}

// Entry is one experiment: a CLI verb, its JSON name and, for catalogue
// entries, one report section.
type Entry struct {
	// Name is the verb and the JSON "experiment" name.
	Name string
	// Heading titles the report section and the usage line.
	Heading string
	// Run executes the experiment against the suite.
	Run func(*Suite) (Output, error)
}

// tabulate is the common entry shape: one sweep whose result is both the
// JSON data and the table's input, with an optional SVG renderer.
func tabulate[R any](sweep func() (R, error), table func(R) *stats.Table, svg func(R, io.Writer) error) (Output, error) {
	rows, err := sweep()
	if err != nil {
		return Output{}, err
	}
	out := Output{Data: rows, Table: table(rows)}
	if svg != nil {
		out.SVG = func(w io.Writer) error { return svg(rows, w) }
	}
	return out, nil
}

// Catalogue lists the paper's evaluation as reproduced here, one entry per
// report section, in report order. WriteReport, the `finepack-sim` verbs
// and `finepack-sim all` all render from this list.
func Catalogue() []Entry {
	return []Entry{
		{"fig2", "Fig 2 — goodput vs transfer size", func(*Suite) (Output, error) {
			points := Fig2()
			return Output{Data: points, Table: Fig2Table(points),
				SVG: func(w io.Writer) error { return Fig2SVG(points, w) }}, nil
		}},
		{"fig4", "Fig 4 — store sizes egressing L1", func(s *Suite) (Output, error) {
			return tabulate(s.Fig4, Fig4Table, Fig4SVG)
		}},
		{"fig9", "Fig 9 — 4-GPU strong scaling", func(s *Suite) (Output, error) {
			rows, geo, err := s.Fig9()
			if err != nil {
				return Output{}, err
			}
			c := stats.NewBarChart("Fig 9 (finepack bars)", 50)
			for _, r := range rows {
				c.Add(r.Workload, r.Speedup[sim.FinePack])
			}
			return Output{Data: map[string]any{"rows": rows, "geomean": geo},
				Table: Fig9Table(rows, geo), Chart: c,
				SVG: func(w io.Writer) error { return Fig9SVG(rows, w) }}, nil
		}},
		{"fig10", "Fig 10 — wire-byte breakdown", func(s *Suite) (Output, error) {
			return tabulate(s.Fig10, Fig10Table, Fig10SVG)
		}},
		{"fig11", "Fig 11 — stores per packet", func(s *Suite) (Output, error) {
			rows, mean, err := s.Fig11()
			if err != nil {
				return Output{}, err
			}
			c := stats.NewBarChart("Fig 11 (stores/packet)", 50)
			for _, r := range rows {
				c.Add(r.Workload, r.StoresPerPacket)
			}
			return Output{Data: map[string]any{"rows": rows, "mean": mean},
				Table: Fig11Table(rows, mean), Chart: c,
				SVG: func(w io.Writer) error { return Fig11SVG(rows, w) }}, nil
		}},
		{"fig12", "Fig 12 — sub-header sensitivity", func(s *Suite) (Output, error) {
			rows, geo, err := s.Fig12()
			if err != nil {
				return Output{}, err
			}
			return Output{Data: map[string]any{"rows": rows, "geomean": geo},
				Table: Fig12Table(rows, geo),
				SVG:   func(w io.Writer) error { return Fig12SVG(rows, w) }}, nil
		}},
		{"fig13", "Fig 13 — bandwidth sensitivity", func(s *Suite) (Output, error) {
			return tabulate(s.Fig13, Fig13Table, Fig13SVG)
		}},
		{"tab2", "Table II — sub-header tradeoff", func(*Suite) (Output, error) {
			return Output{Data: Tab2Rows(), Table: Tab2Table()}, nil
		}},
		{"alt-design", "§VI-B — config-packet alternate design", func(s *Suite) (Output, error) {
			return tabulate(s.AltDesign, AltDesignTable, nil)
		}},
		{"wc", "§VI-A — write combining alone", func(s *Suite) (Output, error) {
			rows, overall, err := s.WCCompare()
			if err != nil {
				return Output{}, err
			}
			return Output{Data: map[string]any{"rows": rows, "overallReductionPc": overall},
				Table: WCTable(rows, overall)}, nil
		}},
		{"gps", "§VI-B — GPS-like comparator", func(s *Suite) (Output, error) {
			rows, ratio, err := s.GPSCompare()
			if err != nil {
				return Output{}, err
			}
			return Output{Data: map[string]any{"rows": rows, "fpOverGPS": ratio},
				Table: GPSTable(rows, ratio)}, nil
		}},
		{"scale16", "§VI-B — 16 GPUs on PCIe 6.0", func(s *Suite) (Output, error) {
			return tabulate(s.Scale16, Scale16Table, nil)
		}},
		{"um", "§II-A — UM / remote-read baselines", func(s *Suite) (Output, error) {
			return tabulate(s.UMCompare, UMTable, nil)
		}},
		{"overlap", "Overlap decomposition", func(s *Suite) (Output, error) {
			return tabulate(s.Overlap, OverlapTable, nil)
		}},
		{"ablation-entries", "Ablation — queue entries", func(s *Suite) (Output, error) {
			return tabulate(s.AblationQueueEntries,
				ablationTable("Ablation: remote write queue entries per partition (§VI-B future work)"), nil)
		}},
		{"ablation-windows", "Ablation — open windows", func(s *Suite) (Output, error) {
			return tabulate(s.AblationOpenWindows,
				ablationTable("Ablation: open outer transactions per destination (§IV-C)"), nil)
		}},
		{"ablation-timeout", "Ablation — flush timeout", func(s *Suite) (Output, error) {
			return tabulate(s.AblationFlushTimeout,
				ablationTable("Ablation: inactivity-timeout flush (§IV-B)"), nil)
		}},
		{"nvlink-fp", "§IV-C — FinePack on a flit-based link", func(*Suite) (Output, error) {
			rows := NVLinkFinePack()
			return Output{Data: rows, Table: NVLinkFinePackTable(rows)}, nil
		}},
		{"scaling", "Strong scaling 2–16 GPUs", func(s *Suite) (Output, error) {
			return tabulate(s.Scaling, ScalingTable, ScalingSVG)
		}},
		{"topo-crossover-dgx2x8", "Topology crossover — multi-hop goodput", func(s *Suite) (Output, error) {
			// dgx2x8 keeps the report tractable; the full 32-GPU pod4x8
			// sweep runs via `finepack-sim topo-crossover` or a
			// finepackd topo-crossover job.
			return tabulate(func() ([]TopoRow, error) {
				spec, err := topo.Preset(topo.PresetDGX2x8)
				if err != nil {
					return nil, err
				}
				return s.TopoCrossover(spec, []int{1, 4, 15})
			}, TopoCrossoverTable, TopoCrossoverSVG)
		}},
	}
}

// Extras lists the experiments the CLI offers beyond the report: run
// diagnostics and the robustness sweep.
func Extras() []Entry {
	return []Entry{
		{"diag", "raw per-run quantities for every workload and paradigm", func(s *Suite) (Output, error) {
			return tabulate(s.Diag, DiagTable, nil)
		}},
		{"ber-sweep", "robustness crossover: slowdown & replays vs link bit-error rate", func(s *Suite) (Output, error) {
			return tabulate(func() ([]BERRow, error) { return s.BERSweep(nil) }, BERSweepTable, BERSweepSVG)
		}},
	}
}

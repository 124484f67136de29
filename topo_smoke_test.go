package finepack_test

import (
	"os"
	"strings"
	"testing"

	"finepack/internal/experiments"
	"finepack/internal/faults"
	"finepack/internal/sim"
	"finepack/internal/topo"
	"finepack/internal/workloads"
)

// topoSmokeSweep runs the multi-hop gate sweep once under cfg: the
// 32-GPU pod4x8 preset carrying the crossover mix (scattered SSSP-style
// stores at the given fanouts plus a concurrent ring AllReduce) under
// both FinePack and the P2P baseline, returning the rows and the
// rendered table.
func topoSmokeSweep(t *testing.T, cfg sim.Config, fanouts []int) ([]experiments.TopoRow, string) {
	t.Helper()
	spec, err := topo.Preset(topo.PresetPod4x8)
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.New(cfg,
		workloads.Params{Scale: 0.1, Iterations: 1, Seed: 7}, 4)
	rows, err := s.TopoCrossover(spec, fanouts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	experiments.TopoCrossoverTable(rows).Render(&sb)
	return rows, sb.String()
}

// TestTopoSmoke is the `make topo-smoke` gate: run the hierarchical
// crossover mix — ring AllReduce sharing the pod4x8 fabric with an
// SSSP-flavored scattered-store sweep — across all 32 GPUs under both
// FinePack and the P2P baseline, then assert the runs actually crossed
// the inter-node fabric and that the report table is stable (a second
// sweep from a fresh suite renders byte-identically). A third sweep
// injects link faults (BER 1e-5) with end-to-end data checking on: every
// pod4x8 edge has a credit window, so it drives the reliable protocol
// through windowed edges on every hop of every attempt. Opt-in via
// TOPO_SMOKE=1: the 32-GPU sweep is too heavy for the default tier-1
// suite, exactly right for its own CI step.
func TestTopoSmoke(t *testing.T) {
	if os.Getenv("TOPO_SMOKE") == "" {
		t.Skip("set TOPO_SMOKE=1 (make topo-smoke) to run the multi-hop topology gate")
	}
	fanouts := []int{1, 8}
	rows, table := topoSmokeSweep(t, sim.DefaultConfig(), fanouts)
	if len(rows) != len(fanouts) {
		t.Fatalf("got %d rows, want %d", len(rows), len(fanouts))
	}
	for _, r := range rows {
		if r.Topology != topo.PresetPod4x8 {
			t.Fatalf("row topology = %q, want %q", r.Topology, topo.PresetPod4x8)
		}
		for _, par := range experiments.TopoCrossoverParadigms() {
			if r.InterNodeWireBytes[par] == 0 {
				t.Errorf("fanout %d: %s moved zero inter-node bytes", r.Fanout, par)
			}
			if r.InterNodeHopBytes[par] <= r.InterNodeWireBytes[par] {
				t.Errorf("fanout %d: %s hop bytes %d not above wire bytes %d (leaf→spine→leaf should double-count)",
					r.Fanout, par, r.InterNodeHopBytes[par], r.InterNodeWireBytes[par])
			}
			if r.Goodput[par] <= 0 || r.InterGoodput[par] <= 0 {
				t.Errorf("fanout %d: %s goodput not positive: %+v", r.Fanout, par, r.Goodput[par])
			}
		}
	}
	if _, again := topoSmokeSweep(t, sim.DefaultConfig(), fanouts); again != table {
		t.Fatalf("report table unstable across fresh sweeps:\n--- first ---\n%s--- second ---\n%s", table, again)
	}
	t.Logf("pod4x8 crossover table:\n%s", table)

	faulted := sim.DefaultConfig()
	faulted.Faults = faults.Config{BER: 1e-5, Seed: 7}
	faulted.CheckData = true
	frows, ftable := topoSmokeSweep(t, faulted, fanouts)
	if len(frows) != len(rows) {
		t.Fatalf("faulted sweep: got %d rows, want %d", len(frows), len(rows))
	}
	for i, r := range frows {
		for _, par := range experiments.TopoCrossoverParadigms() {
			if r.Time[par] <= rows[i].Time[par] {
				t.Errorf("fanout %d: %s at BER 1e-5 took %v, not above the fault-free %v",
					r.Fanout, par, r.Time[par], rows[i].Time[par])
			}
		}
	}
	t.Logf("pod4x8 crossover table at BER 1e-5:\n%s", ftable)
}

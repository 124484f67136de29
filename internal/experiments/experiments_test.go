package experiments

import (
	"strings"
	"sync"
	"testing"

	"finepack/internal/core"
	"finepack/internal/sim"
	"finepack/internal/topo"
)

// fullSuite is shared across tests so expensive full-scale runs are
// simulated once.
var (
	fullOnce  sync.Once
	fullSuite *Suite
)

func full(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale experiment suite skipped in -short mode")
	}
	fullOnce.Do(func() { fullSuite = Default() })
	return fullSuite
}

func TestFig2CurveAnchors(t *testing.T) {
	points := Fig2()
	if len(points) == 0 {
		t.Fatal("no points")
	}
	bySize := map[int]Fig2Point{}
	for _, p := range points {
		bySize[p.SizeBytes] = p
	}
	// §I: "32B transfers are roughly half as efficient as transfers of
	// 128B or larger" (vs the large-transfer asymptote).
	ratio := bySize[32].PCIeGoodput / bySize[4096].PCIeGoodput
	if ratio < 0.45 || ratio > 0.65 {
		t.Fatalf("32B/4KB PCIe goodput ratio = %.2f", ratio)
	}
	// Small-store efficiency of PCIe and NVLink is similar (§IV-C).
	for _, size := range []int{8, 16, 32} {
		p := bySize[size]
		if p.NVLinkMisaligned == 0 {
			t.Fatalf("missing NVLink point at %dB", size)
		}
		r := p.PCIeGoodput / p.NVLinkMisaligned
		if r < 0.5 || r > 2.0 {
			t.Fatalf("PCIe/NVLink small-store goodput ratio at %dB = %.2f", size, r)
		}
	}
	// NVLink spikes: aligned ≥ misaligned everywhere.
	for _, p := range points {
		if p.SizeBytes <= 128 && p.NVLinkAligned < p.NVLinkMisaligned {
			t.Fatalf("no spike structure at %dB", p.SizeBytes)
		}
	}
	if Fig2Table(points).NumRows() != len(points) {
		t.Fatal("table row mismatch")
	}
}

func TestFig4QuickShape(t *testing.T) {
	s := Quick()
	rows, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §I: on average over 63% of transfers are < 32B; at reduced scale we
	// assert the same qualitative majority.
	var sum float64
	for _, r := range rows {
		sum += r.Sub32
	}
	if avg := sum / float64(len(rows)); avg < 0.5 {
		t.Fatalf("suite-average sub-32B fraction = %.2f", avg)
	}
	if Fig4Table(rows).NumRows() != 8 {
		t.Fatal("table rows")
	}
}

// TestFig9PaperShape asserts the headline result's structure at full scale:
// FinePack beats DMA beats P2P in the geomean; FinePack lands in the
// paper's band (≈2.4× ±25%); it captures most of the infinite-bandwidth
// opportunity (paper: 71%); per-workload, FinePack is never materially
// worse than either baseline.
func TestFig9PaperShape(t *testing.T) {
	s := full(t)
	rows, geo, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !(geo[sim.FinePack] > geo[sim.DMA] && geo[sim.DMA] > geo[sim.P2P]) {
		t.Fatalf("geomean ordering broken: fp=%.2f dma=%.2f p2p=%.2f",
			geo[sim.FinePack], geo[sim.DMA], geo[sim.P2P])
	}
	if geo[sim.FinePack] < 1.8 || geo[sim.FinePack] > 3.0 {
		t.Fatalf("FinePack geomean = %.2f, paper reports 2.4×", geo[sim.FinePack])
	}
	if geo[sim.Infinite] < 3.0 || geo[sim.Infinite] > 3.9 {
		t.Fatalf("infinite-BW geomean = %.2f, paper reports 3.4×", geo[sim.Infinite])
	}
	frac := geo[sim.FinePack] / geo[sim.Infinite]
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("FinePack captures %.0f%% of opportunity, paper reports 71%%", frac*100)
	}
	// FinePack over DMA (paper: 1.4×) and over P2P (paper: 3×): assert
	// both ratios exceed 1.25 and P2P gains exceed DMA gains.
	fpOverDMA := geo[sim.FinePack] / geo[sim.DMA]
	fpOverP2P := geo[sim.FinePack] / geo[sim.P2P]
	if fpOverDMA < 1.25 {
		t.Fatalf("FinePack/DMA = %.2f, paper reports 1.4×", fpOverDMA)
	}
	if fpOverP2P < fpOverDMA {
		t.Fatalf("FinePack should gain more over P2P (%.2f) than DMA (%.2f)",
			fpOverP2P, fpOverDMA)
	}
	for _, r := range rows {
		// Regular apps: P2P achieves considerable speedups (§VI-A).
		if r.Workload == "jacobi" || r.Workload == "diffusion" {
			if r.Speedup[sim.P2P] < 2.5 {
				t.Errorf("%s: P2P speedup %.2f, regular apps should scale", r.Workload, r.Speedup[sim.P2P])
			}
		}
		// Irregular apps: P2P causes slowdowns (< 1×).
		if r.Workload == "pagerank" || r.Workload == "sssp" {
			if r.Speedup[sim.P2P] >= 1 {
				t.Errorf("%s: P2P speedup %.2f, paper shows net slowdown", r.Workload, r.Speedup[sim.P2P])
			}
		}
		// FinePack never materially loses to either baseline.
		if r.Speedup[sim.FinePack] < 0.95*r.Speedup[sim.P2P] {
			t.Errorf("%s: FinePack below P2P", r.Workload)
		}
		if r.Speedup[sim.FinePack] < 0.95*r.Speedup[sim.DMA] {
			t.Errorf("%s: FinePack below DMA", r.Workload)
		}
		// Nothing beats infinite bandwidth.
		for _, par := range sim.Fig9Paradigms() {
			if r.Speedup[par] > r.Speedup[sim.Infinite]*1.001 {
				t.Errorf("%s: %v beat infinite bandwidth", r.Workload, par)
			}
		}
	}
	if Fig9Table(rows, geo).NumRows() != 9 {
		t.Fatal("table rows")
	}
}

// TestFig10PaperShape: FinePack transfers ~2.7× less than P2P; P2P carries
// large protocol overhead; DMA's overhead is negligible; wasted bytes
// appear for DMA (over-transfer) and P2P (redundancy) but are mostly
// coalesced away by FinePack.
func TestFig10PaperShape(t *testing.T) {
	s := full(t)
	rows, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var p2pTotal, fpTotal, dmaTotal float64
	for _, r := range rows {
		for _, par := range Fig10Paradigms() {
			total := r.Useful[par] + r.Protocol[par] + r.Wasted[par]
			if total <= 0 {
				t.Fatalf("%s/%v: empty breakdown", r.Workload, par)
			}
		}
		dma := r.Useful[sim.DMA] + r.Protocol[sim.DMA] + r.Wasted[sim.DMA]
		if dma < 0.99 || dma > 1.01 {
			t.Fatalf("%s: DMA total = %.3f, must normalize to 1", r.Workload, dma)
		}
		// DMA protocol overhead negligible (§VI-A).
		if r.Protocol[sim.DMA] > 0.05 {
			t.Errorf("%s: DMA protocol fraction %.2f", r.Workload, r.Protocol[sim.DMA])
		}
		// FinePack wasted ≤ P2P wasted.
		if r.Wasted[sim.FinePack] > r.Wasted[sim.P2P]+1e-9 {
			t.Errorf("%s: FinePack wastes more than P2P", r.Workload)
		}
		p2pTotal += r.Useful[sim.P2P] + r.Protocol[sim.P2P] + r.Wasted[sim.P2P]
		fpTotal += r.Useful[sim.FinePack] + r.Protocol[sim.FinePack] + r.Wasted[sim.FinePack]
		dmaTotal += dma
	}
	// Paper: FinePack transfers 2.7× less data than P2P and 1.3× less
	// than DMA. Assert the P2P ratio within a generous band and the DMA
	// ratio near parity or better.
	p2pOverFP := p2pTotal / fpTotal
	if p2pOverFP < 2.0 || p2pOverFP > 3.5 {
		t.Fatalf("P2P/FinePack wire ratio = %.2f, paper reports 2.7×", p2pOverFP)
	}
	if fpTotal > dmaTotal*1.15 {
		t.Fatalf("FinePack moves %.2f× DMA's bytes; paper reports 1.3× less", fpTotal/dmaTotal)
	}
}

// TestFig11PaperShape: strong packing on average, CT the outlier.
func TestFig11PaperShape(t *testing.T) {
	s := full(t)
	rows, mean, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if mean < 20 {
		t.Fatalf("mean packing = %.1f stores/packet; paper reports 42", mean)
	}
	var ct, min float64 = -1, 1e18
	for _, r := range rows {
		if r.StoresPerPacket < min {
			min = r.StoresPerPacket
		}
		if r.Workload == "ct" {
			ct = r.StoresPerPacket
		}
	}
	if ct != min {
		t.Fatalf("CT (%.1f) must be the packing outlier (min %.1f)", ct, min)
	}
	if ct > 8 {
		t.Fatalf("CT packs %.1f stores/packet; paper shows it packing fewest by far", ct)
	}
}

// TestFig12PaperShape: performance rises with sub-header bytes, is flat
// between 4B and 5B (the paper's sweet spot), and 2B is clearly worst.
func TestFig12PaperShape(t *testing.T) {
	s := full(t)
	_, geo, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if !(geo[3] > geo[2]) {
		t.Fatalf("3B (%.2f) should beat 2B (%.2f)", geo[3], geo[2])
	}
	if !(geo[4] > geo[3]) {
		t.Fatalf("4B (%.2f) should beat 3B (%.2f)", geo[4], geo[3])
	}
	// "reaches the maximum at 4 sub-transaction header bytes, with
	// virtually no change at 5 bytes".
	diff := geo[5]/geo[4] - 1
	if diff < -0.05 || diff > 0.05 {
		t.Fatalf("4B→5B change = %.1f%%, paper reports virtually none", diff*100)
	}
	if geo[6] > geo[4]*1.02 {
		t.Fatalf("6B (%.2f) should not beat the 4-5B sweet spot (%.2f)", geo[6], geo[4])
	}
}

// TestFig13PaperShape: every paradigm improves with bandwidth; FinePack
// stays ahead at every step and converges toward the infinite bound.
func TestFig13PaperShape(t *testing.T) {
	s := full(t)
	rows, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var inf float64
	for _, r := range rows {
		if r.Label == "infinite" {
			inf = r.Speedup[sim.FinePack]
		}
	}
	prev := map[sim.Paradigm]float64{}
	for _, r := range rows {
		if r.Label == "infinite" {
			continue
		}
		for _, par := range []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack} {
			if r.Speedup[par] < prev[par] {
				t.Errorf("%s: %v regressed with more bandwidth", r.Label, par)
			}
			prev[par] = r.Speedup[par]
		}
		// "at no step (until bandwidth is unlimited) do they achieve the
		// performance of FinePack".
		if r.Speedup[sim.P2P] > r.Speedup[sim.FinePack] ||
			r.Speedup[sim.DMA] > r.Speedup[sim.FinePack] {
			t.Errorf("%s: a baseline beat FinePack", r.Label)
		}
		if r.Speedup[sim.FinePack] > inf*1.001 {
			t.Errorf("%s: FinePack above the infinite bound", r.Label)
		}
	}
}

func TestWCComparePaperDirection(t *testing.T) {
	s := full(t)
	rows, overall, err := s.WCCompare()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 24% reduction overall. Our synthetic store streams have
	// smaller average runs than the paper's traces, so the reduction is
	// larger; assert the direction and a sane band.
	if overall < 10 || overall > 70 {
		t.Fatalf("overall reduction = %.1f%% (paper: 24%%)", overall)
	}
	for _, r := range rows {
		if r.FinePack > r.WriteComb {
			t.Errorf("%s: FinePack moved more bytes than write combining", r.Workload)
		}
	}
}

func TestGPSComparePaperDirection(t *testing.T) {
	s := full(t)
	rows, _, err := s.GPSCompare()
	if err != nil {
		t.Fatal(err)
	}
	// §VI-B's direction: on dense/regular apps GPS is competitive
	// (within ~10%); on sparse-store apps FinePack wins clearly.
	for _, r := range rows {
		ratio := r.FinePack / r.GPS
		switch r.Workload {
		case "jacobi", "diffusion":
			if ratio < 0.9 || ratio > 1.2 {
				t.Errorf("%s: fp/gps = %.2f, dense apps should be close", r.Workload, ratio)
			}
		case "sssp", "hit":
			if ratio < 1.5 {
				t.Errorf("%s: fp/gps = %.2f, sparse apps should favor FinePack", r.Workload, ratio)
			}
		}
	}
}

func TestAltDesignPaperAnchor(t *testing.T) {
	s := Quick()
	rows, err := s.AltDesign()
	if err != nil {
		t.Fatal(err)
	}
	var at48 float64
	for _, r := range rows {
		if r.ConfigPktWire <= r.FinePackWire {
			t.Errorf("run %dB: config-packet should always cost more", r.RunBytes)
		}
		if r.RunBytes == 48 && !r.Measured {
			at48 = r.InefficiencyPc
		}
	}
	if at48 < 14 || at48 > 24 {
		t.Fatalf("48B-run inefficiency = %.1f%%, paper reports ≈18%%", at48)
	}
}

func TestScale16PaperDirection(t *testing.T) {
	s := full(t)
	res, err := s.Scale16()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: FinePack outperforms P2P by 3× and DMA by 1.9× at 16 GPUs
	// on PCIe 6.0. Assert FinePack wins both by a clear margin.
	if res.FPOverP2P < 1.4 {
		t.Fatalf("FP/P2P at 16 GPUs = %.2f, paper reports 3×", res.FPOverP2P)
	}
	if res.FPOverDMA < 1.4 {
		t.Fatalf("FP/DMA at 16 GPUs = %.2f, paper reports 1.9×", res.FPOverDMA)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// TestUMComparePaperDirection: §II-A's claim — page migration is too
// inefficient for fine-grained sharing; every workload does better with
// explicit transfers, and the page-granularity byte inflation is large for
// scattered-update workloads.
func TestUMComparePaperDirection(t *testing.T) {
	s := Quick()
	rows, err := s.UMCompare()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.UMSpeedup >= r.DMASpeedup {
			t.Errorf("%s: UM (%.2f) should trail DMA (%.2f)", r.Workload, r.UMSpeedup, r.DMASpeedup)
		}
		if r.UMSpeedup >= r.FPSpeedup {
			t.Errorf("%s: UM (%.2f) should trail FinePack (%.2f)", r.Workload, r.UMSpeedup, r.FPSpeedup)
		}
		if r.RemoteRdSpeedup >= r.DMASpeedup {
			t.Errorf("%s: remote reads (%.2f) should trail DMA (%.2f)",
				r.Workload, r.RemoteRdSpeedup, r.DMASpeedup)
		}
		if r.RemoteRdSpeedup >= r.FPSpeedup {
			t.Errorf("%s: remote reads (%.2f) should trail FinePack (%.2f)",
				r.Workload, r.RemoteRdSpeedup, r.FPSpeedup)
		}
		if r.PagesMigrated == 0 {
			t.Errorf("%s: no pages migrated", r.Workload)
		}
		if r.InflationX < 1 {
			t.Errorf("%s: inflation %.1f < 1", r.Workload, r.InflationX)
		}
	}
	// CT's scattered voxel updates touch pages everywhere: worst inflation.
	var ct, maxOther float64
	for _, r := range rows {
		if r.Workload == "ct" {
			ct = r.InflationX
		} else if r.InflationX > maxOther {
			maxOther = r.InflationX
		}
	}
	if ct <= maxOther {
		t.Fatalf("CT inflation %.1f should dominate (max other %.1f)", ct, maxOther)
	}
	if UMTable(rows).NumRows() != 8 {
		t.Fatal("table rows")
	}
}

// TestOverlapDecomposition: DMA exposes communication; the store paradigms
// overlap it with compute.
func TestOverlapDecomposition(t *testing.T) {
	s := Quick()
	rows, err := s.Overlap()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]OverlapRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Paradigm.String()] = r
	}
	for _, name := range s.Workloads() {
		dma := byKey[name+"/dma"]
		fp := byKey[name+"/finepack"]
		if dma.ExposedCommUs <= 0 {
			t.Errorf("%s: DMA should expose communication", name)
		}
		if fp.ExposedCommUs > dma.ExposedCommUs {
			t.Errorf("%s: FinePack exposes more comm (%.1fus) than DMA (%.1fus)",
				name, fp.ExposedCommUs, dma.ExposedCommUs)
		}
		if dma.ComputeUs <= 0 || dma.BarrierUs <= 0 {
			t.Errorf("%s: missing decomposition components", name)
		}
	}
	if OverlapTable(rows).NumRows() != len(rows) {
		t.Fatal("table rows")
	}
}

func TestTab2Table(t *testing.T) {
	out := Tab2Table().String()
	for _, want := range []string{"64B", "16KB", "4MB", "1GB", "256GB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %s:\n%s", want, out)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := Quick()
	a, err := s.Run("jacobi", sim.FinePack)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("jacobi", sim.FinePack)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached result not reused")
	}
	ta, err := s.Trace("jacobi", 4)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.Trace("jacobi", 4)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Fatal("cached trace not reused")
	}
}

// TestResultCacheKeysWholeConfig: the result cache is keyed on the whole
// sim.Config, so two configs that differ only in a knob outside the
// FinePack/link parameters (here the barrier latency) never share a run,
// while an equal config built separately still hits the cache.
func TestResultCacheKeysWholeConfig(t *testing.T) {
	s := smallSuite()
	slow := s.Cfg
	slow.BarrierLatency *= 10
	a, err := s.runWith("hit", s.NumGPUs, sim.FinePack, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.runWith("hit", s.NumGPUs, sim.FinePack, slow)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time == b.Time {
		t.Fatalf("BarrierLatency %v and %v share one result (Time %v)",
			s.Cfg.BarrierLatency, slow.BarrierLatency, a.Time)
	}
	again, err := s.runWith("hit", s.NumGPUs, sim.FinePack, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Fatal("an equal config missed the cache")
	}
}

// TestRunHonorsTopology: a suite configured with a topology simulates on
// that graph — fingerprinting the topology into the cache key must not
// strip it from the config that runs.
func TestRunHonorsTopology(t *testing.T) {
	s := smallSuite()
	s.Cfg.Topology = topo.Hierarchical("twin2x2", 2, 2,
		topo.LinkClass{Bandwidth: 64e9, Latency: core.PicoSeconds(200_000)},
		topo.LinkClass{Bandwidth: 16e9, Latency: core.PicoSeconds(1_000_000)},
	)
	hier, err := s.Run("hit", sim.FinePack)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Topology != "twin2x2" {
		t.Fatalf("Topology = %q, want twin2x2", hier.Topology)
	}
	flat, err := s.runWith("hit", s.NumGPUs, sim.FinePack, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if flat.Topology != "" || flat.Time == hier.Time {
		t.Fatalf("flat run (topology %q, time %v) matches the twin2x2 run (time %v)",
			flat.Topology, flat.Time, hier.Time)
	}
}

func TestUnknownWorkload(t *testing.T) {
	s := Quick()
	if _, err := s.Trace("nope", 4); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := s.Run("nope", sim.P2P); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDiagQuick(t *testing.T) {
	s := Quick()
	rows, err := s.Diag()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*8 {
		t.Fatalf("diag rows = %d, want 64", len(rows))
	}
	if DiagTable(rows).NumRows() != len(rows) {
		t.Fatal("diag table rows")
	}
}

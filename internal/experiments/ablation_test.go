package experiments

import (
	"testing"

	"finepack/internal/des"
	"finepack/internal/sim"
	"finepack/internal/workloads"
)

// ablationSuite is smaller than Quick() because each sweep runs the whole
// suite several times.
func ablationSuite() *Suite {
	return New(sim.DefaultConfig(), workloads.Params{Scale: 0.15, Iterations: 1, Seed: 1}, 4)
}

// TestAblationQueueEntriesShape: packing and performance grow with queue
// capacity and saturate around the paper's 64-entry choice — the §VI-B
// future-work question answered.
func TestAblationQueueEntriesShape(t *testing.T) {
	s := ablationSuite()
	rows, err := s.AblationQueueEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Packing factor strictly grows with capacity.
	for i := 1; i < len(rows); i++ {
		if rows[i].StoresPerPacket <= rows[i-1].StoresPerPacket {
			t.Fatalf("packing not increasing: %s %.1f → %s %.1f",
				rows[i-1].Label, rows[i-1].StoresPerPacket,
				rows[i].Label, rows[i].StoresPerPacket)
		}
	}
	// Wire traffic shrinks with capacity.
	if rows[len(rows)-1].WireBytes >= rows[0].WireBytes {
		t.Fatal("larger queues should reduce wire bytes")
	}
	// Saturation: doubling 64 → 128 entries changes the geomean < 5%.
	var at64, at128 float64
	for _, r := range rows {
		switch r.Label {
		case "64 entries":
			at64 = r.Geomean
		case "128 entries":
			at128 = r.Geomean
		}
	}
	if at64 == 0 || at128 == 0 {
		t.Fatal("missing 64/128 entry rows")
	}
	if d := at128/at64 - 1; d > 0.08 || d < -0.08 {
		t.Fatalf("64→128 entries changes geomean by %.1f%%; Table III's 64 should saturate", d*100)
	}
}

func TestAblationOpenWindowsShape(t *testing.T) {
	s := ablationSuite()
	rows, err := s.AblationOpenWindows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More open windows never increase window-miss flushes.
	for i := 1; i < len(rows); i++ {
		if rows[i].WindowMissFlushes > rows[i-1].WindowMissFlushes {
			t.Fatalf("window misses grew with more windows: %v", rows)
		}
	}
	// §IV-C: "the issues described here did not arise as first-order
	// concerns in practice" — single-window performance within 5% of
	// multi-window.
	if d := rows[2].Geomean/rows[0].Geomean - 1; d > 0.05 {
		t.Fatalf("multi-window gained %.1f%%; paper found single window sufficient", d*100)
	}
}

func TestAblationFlushTimeoutShape(t *testing.T) {
	// Kernels must be long enough that a 10ns timeout can fire between
	// emission batches, so this sweep uses a larger scale than the other
	// ablation tests.
	s := New(sim.DefaultConfig(), workloads.Params{Scale: 0.5, Iterations: 1, Seed: 1}, 4)
	rows, err := s.AblationFlushTimeout()
	if err != nil {
		t.Fatal(err)
	}
	var off, aggressive AblationRow
	for _, r := range rows {
		switch r.Label {
		case "off":
			off = r
		case "10ns":
			aggressive = r
		}
	}
	if off.TimeoutFlushes != 0 {
		t.Fatal("disabled timeout must not fire")
	}
	if aggressive.TimeoutFlushes == 0 {
		t.Fatal("aggressive timeout should fire")
	}
	// The paper's rationale: timeouts sacrifice coalescing window.
	if aggressive.StoresPerPacket >= off.StoresPerPacket {
		t.Fatalf("aggressive timeout should reduce packing: %.1f vs %.1f",
			aggressive.StoresPerPacket, off.StoresPerPacket)
	}
	if aggressive.WireBytes <= off.WireBytes {
		t.Fatal("aggressive timeout should add wire traffic")
	}
}

func TestAblationTableRenders(t *testing.T) {
	rows := []AblationRow{{Label: "x", Geomean: 1.5, StoresPerPacket: 10}}
	out := ablationTable("title")(rows).String()
	if len(out) == 0 || out[0] != '=' {
		t.Fatalf("table output %q", out)
	}
}

func TestNVLinkFinePackShape(t *testing.T) {
	rows := NVLinkFinePack()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// §IV-C: FinePack "should achieve similar benefits" on NVLink.
		if r.NVLinkGain < 1 || r.PCIeGain < 1 {
			t.Fatalf("%dB: FinePack must gain on both protocols: %+v", r.StoreBytes, r)
		}
		// The flit protocol's fixed header is at least as painful per
		// small store, so the relative gain is at least comparable.
		if r.NVLinkGain < r.PCIeGain*0.8 {
			t.Fatalf("%dB: NVLink gain %.2f far below PCIe gain %.2f",
				r.StoreBytes, r.NVLinkGain, r.PCIeGain)
		}
	}
	// Gains shrink as stores grow (less header to amortize).
	for i := 1; i < len(rows); i++ {
		if rows[i].PCIeGain > rows[i-1].PCIeGain {
			t.Fatal("PCIe gain should fall with store size")
		}
	}
	if NVLinkFinePackTable(rows).NumRows() != len(rows) {
		t.Fatal("table rows")
	}
}

// TestScalingCurveShape: FinePack leads the baselines at every system
// size, and the infinite-bandwidth bound grows monotonically with GPU
// count (the workloads are compute-scalable; only communication limits
// them).
func TestScalingCurveShape(t *testing.T) {
	s := ablationSuite()
	rows, err := s.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	prevInf := 0.0
	for _, r := range rows {
		fp := r.Speedup[sim.FinePack]
		if fp < r.Speedup[sim.P2P] || fp < r.Speedup[sim.DMA] {
			t.Errorf("%d GPUs: FinePack (%.2f) behind a baseline (p2p %.2f, dma %.2f)",
				r.GPUs, fp, r.Speedup[sim.P2P], r.Speedup[sim.DMA])
		}
		inf := r.Speedup[sim.Infinite]
		if inf < prevInf {
			t.Errorf("%d GPUs: infinite bound regressed (%.2f < %.2f)", r.GPUs, inf, prevInf)
		}
		if fp > inf*1.001 {
			t.Errorf("%d GPUs: FinePack above the infinite bound", r.GPUs)
		}
		prevInf = inf
	}
	if ScalingTable(rows).NumRows() != 4 {
		t.Fatal("table rows")
	}
}

// TestTimeoutSweepUsesScaledUnits documents that the sweep's points are in
// the suite's scaled time units.
func TestTimeoutSweepUsesScaledUnits(t *testing.T) {
	s := ablationSuite()
	rows, err := s.AblationFlushTimeout()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Label != "off" {
		t.Fatal("first point must be the paper's configuration (off)")
	}
	_ = des.Nanosecond // unit anchor for the doc comment
}

package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"finepack/internal/faults"
	"finepack/internal/sim"
	"finepack/internal/workloads"
)

// fabricGolden pins one multi-switch run of the flat PCIe fabric: the
// 8-GPU (two leaf switches) and 16-GPU (four leaf switches) systems, where
// cross-switch messages share a trunk, with and without link faults so
// sends with and without the reliable protocol's stages are covered
// byte for byte.
type fabricGolden struct {
	Workload          string            `json:"workload"`
	GPUs              int               `json:"gpus"`
	Paradigm          string            `json:"paradigm"`
	BER               float64           `json:"ber"`
	TimePs            uint64            `json:"time_ps"`
	ComputePs         uint64            `json:"compute_ps"`
	BarrierPs         uint64            `json:"barrier_ps"`
	WireBytes         uint64            `json:"wire_bytes"`
	DataBytes         uint64            `json:"data_bytes"`
	UsefulBytes       uint64            `json:"useful_bytes"`
	Packets           uint64            `json:"packets"`
	StoresSent        uint64            `json:"stores_sent"`
	StoresPerPacket   float64           `json:"stores_per_packet"`
	Replays           uint64            `json:"replays"`
	ReplayedWireBytes uint64            `json:"replayed_wire_bytes"`
	RecoveredStalls   uint64            `json:"recovered_stalls"`
	LinkErrors        map[string]uint64 `json:"link_errors,omitempty"`
}

func fabricGoldenPath() string {
	return filepath.Join("testdata", "golden_fabric.json")
}

// fabricGoldenRuns replays {8,16} GPUs × {pagerank, sssp} × the Fig 9
// paradigms × {ideal, BER 1e-5} with byte-accurate data checking on.
func fabricGoldenRuns(t *testing.T) []fabricGolden {
	t.Helper()
	params := workloads.Params{Scale: 0.1, Iterations: 2, Seed: 3}
	var got []fabricGolden
	for _, gpus := range []int{8, 16} {
		for _, ber := range []float64{0, 1e-5} {
			cfg := sim.DefaultConfig()
			cfg.CheckData = true
			if ber > 0 {
				cfg.Faults = faults.Config{BER: ber, Seed: 9}
			}
			s := New(cfg, params, gpus)
			for _, name := range []string{"pagerank", "sssp"} {
				for _, par := range sim.Fig9Paradigms() {
					res, err := s.Run(name, par)
					if err != nil {
						t.Fatalf("%s/%d/%s/ber=%g: %v", name, gpus, par, ber, err)
					}
					got = append(got, fabricGolden{
						Workload:          name,
						GPUs:              gpus,
						Paradigm:          par.String(),
						BER:               ber,
						TimePs:            uint64(res.Time),
						ComputePs:         uint64(res.ComputeTime),
						BarrierPs:         uint64(res.BarrierTime),
						WireBytes:         uint64(res.WireBytes),
						DataBytes:         uint64(res.DataBytes),
						UsefulBytes:       uint64(res.UsefulBytes),
						Packets:           res.Packets,
						StoresSent:        res.StoresSent,
						StoresPerPacket:   res.AvgStoresPerPacket,
						Replays:           res.Replays,
						ReplayedWireBytes: uint64(res.ReplayedWireBytes),
						RecoveredStalls:   res.RecoveredStalls,
						LinkErrors:        res.LinkErrors,
					})
				}
			}
		}
	}
	return got
}

// TestFlatFabricGolden pins the multi-switch flat fabric — shared trunks
// and the fault-path replay protocol included — bit for bit. Intentional
// model changes regenerate with
// `go test ./internal/experiments -run TestFlatFabricGolden -update`.
func TestFlatFabricGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("32 checked simulations")
	}
	got := fabricGoldenRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fabricGoldenPath(), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fabric golden rewritten with %d entries", len(got))
		return
	}
	raw, err := os.ReadFile(fabricGoldenPath())
	if err != nil {
		t.Fatalf("missing fabric golden (run with -update to create): %v", err)
	}
	var want []fabricGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fabric golden has %d entries, run produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("drift at %s/%d GPUs/%s/ber=%g:\n got %+v\nwant %+v",
				got[i].Workload, got[i].GPUs, got[i].Paradigm, got[i].BER, got[i], want[i])
		}
	}
}

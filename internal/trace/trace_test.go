package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"finepack/internal/gpusim"
)

// tinyTrace builds a 2-GPU, 2-iteration trace exercising both paradigms.
func tinyTrace() *Trace {
	ws := func(dst int, addrs ...uint64) gpusim.WarpStore {
		return gpusim.WarpStore{Dst: dst, ElemSize: 4, Addrs: addrs}
	}
	iter := Iteration{PerGPU: []GPUWork{
		{
			ComputeOps: 1e6,
			Stores:     []gpusim.WarpStore{ws(1, 0, 4, 8), ws(1, 4096)},
			Copies:     []Copy{{Dst: 1, Bytes: 1 << 20, UsefulBytes: 1 << 10}},
		},
		{
			ComputeOps: 1e6,
			Stores:     []gpusim.WarpStore{ws(0, 128)},
			Copies:     []Copy{{Dst: 0, Bytes: 1 << 20, UsefulBytes: 1 << 10}},
		},
	}}
	return &Trace{
		Name:                "tiny",
		NumGPUs:             2,
		SingleGPUOpsPerIter: 2e6,
		Iterations:          []Iteration{iter, iter},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Trace)
	}{
		{"zero gpus", func(tr *Trace) { tr.NumGPUs = 0 }},
		{"zero baseline ops", func(tr *Trace) { tr.SingleGPUOpsPerIter = 0 }},
		{"gpu count mismatch", func(tr *Trace) {
			tr.Iterations[0].PerGPU = tr.Iterations[0].PerGPU[:1]
		}},
		{"self store", func(tr *Trace) {
			tr.Iterations[0].PerGPU[0].Stores[0].Dst = 0
		}},
		{"dst out of range", func(tr *Trace) {
			tr.Iterations[0].PerGPU[0].Stores[0].Dst = 5
		}},
		{"invalid warp store", func(tr *Trace) {
			tr.Iterations[0].PerGPU[0].Stores[0].ElemSize = 0
		}},
		{"self copy", func(tr *Trace) {
			tr.Iterations[0].PerGPU[0].Copies[0].Dst = 0
		}},
		{"useful exceeds total", func(tr *Trace) {
			tr.Iterations[0].PerGPU[0].Copies[0].UsefulBytes = 2 << 20
		}},
	}
	for _, m := range mutations {
		tr := tinyTrace()
		m.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: validation should fail", m.name)
		}
	}
}

func TestCounts(t *testing.T) {
	tr := tinyTrace()
	if got := tr.NumWarpStores(); got != 6 {
		t.Fatalf("NumWarpStores = %d, want 6", got)
	}
	total, useful := tr.CopyBytes()
	if total != 4<<20 || useful != 4<<10 {
		t.Fatalf("CopyBytes = %d/%d", total, useful)
	}
}

func TestStoreSizeHistogram(t *testing.T) {
	tr := tinyTrace()
	h, err := tr.StoreSizeHistogram()
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: gpu0 warp1 coalesces 3 adjacent 4B lanes → one 12B
	// tx (16B bucket) plus warp2 → one 4B tx; gpu1 → one 4B tx.
	// ×2 iterations = 6 transactions: 4 in ≤4B bucket, 2 in 16B.
	if h.Total() != 6 {
		t.Fatalf("histogram total = %d, want 6", h.Total())
	}
	if got := h.Fraction(4); got < 0.66 || got > 0.67 {
		t.Fatalf("4B fraction = %v, want 2/3", got)
	}
	if got := h.Fraction(16); got < 0.33 || got > 0.34 {
		t.Fatalf("16B fraction = %v, want 1/3", got)
	}
}

// TestJSONRoundTrip: the json export verb's output parses back with
// encoding/json into the same trace.
func TestJSONRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := tr.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, tr) {
		t.Fatalf("json round trip mismatch: %+v", got)
	}
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func specNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name+" "+s.unit)
	}
	return out
}

// TestNamesMatchBenchmarkJSON runs one workload for a single pass in both
// modes and requires the printed metric names and units, and the
// workload list, to be exactly those BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var wls, e2e, layer []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	if !slices.Equal(names, wls) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, wls)
	}
	if got := specNames(endToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", got, e2e)
	}
	if got := specNames(perLayer()); !slices.Equal(got, layer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json %v", got, layer)
	}

	w, err := findWorkload("lossy-links")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, _, err := measure(w, 2, 0, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want := e2e
		if traced {
			want = layer
		}
		var got []string
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		slices.Sort(got)
		want = slices.Clone(want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("traced=%v printed %v, want %v", traced, got, want)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestPerturbedFingerprintFails checks one real op against the committed
// reference, then perturbs each fingerprint field in turn: every
// perturbation must count as a failed op.
func TestPerturbedFingerprintFails(t *testing.T) {
	w, err := findWorkload("lossy-links")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := setup(w, referenceSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(w.name, referenceSeed, b.lossy)
	if err != nil {
		t.Fatal(err)
	}
	o := &b.ops[1] // pagerank under FinePack
	res, err := o.run(nil)
	if !c.check(o, res, err) {
		t.Fatalf("%s fails against the committed reference", o.key(w.name))
	}
	key := o.key(w.name)
	good := c.ref[key]
	v := reflect.ValueOf(&good).Elem()
	for i := 0; i < v.NumField(); i++ {
		bad := good
		f := reflect.ValueOf(&bad).Elem().Field(i)
		if f.Kind() == reflect.Array {
			f.Index(2).SetUint(f.Index(2).Uint() + 1)
		} else if f.CanInt() {
			f.SetInt(f.Int() + 1)
		} else {
			f.SetUint(f.Uint() + 1)
		}
		c.ref[key] = bad
		failed := c.failed
		if c.check(o, res, nil) || c.failed != failed+1 {
			t.Errorf("perturbing %s was not reported as a failure", v.Type().Field(i).Name)
		}
	}
	c.ref[key] = good
	if !c.check(o, res, nil) {
		t.Error("restored reference fails")
	}

	// Off the reference seed, a repeat run that differs fails too.
	c.ref = nil
	c.first[key] = fingerprint{Time: 1}
	if c.check(o, res, nil) {
		t.Error("a repeat run differing from the first was not reported as a failure")
	}
	// And so does a lossy op without replays.
	noReplay := good
	noReplay.Replays = 0
	if invariants(noReplay, true) == nil {
		t.Error("an op with no replays on a lossy fabric passed")
	}
}

// TestSetupDeterministic requires every workload to generate identical
// inputs for the same seed, and different ones for another seed.
func TestSetupDeterministic(t *testing.T) {
	digests := func(w *workload, seed int64) []uint64 {
		t.Helper()
		b, _, err := setup(w, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, in := range b.inputs {
			if in.warpStores == 0 {
				t.Errorf("%s: input %s has no warp stores", w.name, in.name)
			}
			out = append(out, in.digest)
		}
		return out
	}
	for i := range benchWorkloads {
		w := &benchWorkloads[i]
		a, b, c := digests(w, 5), digests(w, 5), digests(w, 6)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 5 generated different inputs twice", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 generated identical inputs", w.name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                   "runtime",
		"finepack/internal/des.(*Scheduler).run":                         "des",
		"finepack/internal/core.(*Queue).Write":                          "core",
		"finepack/internal/sim.(*runner).scheduleStores.func1":           "sim",
		"finepack/internal/trace.(*SliceSource).Next":                    "other",
		"slices.pdqsortCmpFunc[go.shape.*finepack/internal/core.window]": "other",
		"sync/atomic.(*Uint64).Add":                                      "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 2s, Total samples = 1900ms (95.00%)
Showing nodes accounting for 1900ms, 100% of 1900ms total
      flat  flat%   sum%        cum   cum%
    1000ms 52.63% 52.63%     1200ms 63.16%  runtime.mallocgc
     900ms 47.37%   100%      900ms 47.37%  slices.pdqsortCmpFunc[go.shape.struct { X int }]
         0     0%   100%     1900ms   100%  main.main
`)
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.mallocgc": 1000,
		"slices.pdqsortCmpFunc[go.shape.struct { X int }]": 900,
		"main.main": 0,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Errorf("parseTop = %v, want %v", flat, want)
	}
}

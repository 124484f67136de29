package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

func TestGenInfoHistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.fps")
	err := gen([]string{
		"-workload", "pagerank", "-o", path,
		"-gpus", "4", "-scale", "0.1", "-iters", "1", "-seed", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := tracestream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if m := f.Meta(); m.Name != "pagerank" || m.NumGPUs != 4 || m.Iterations != 1 {
		t.Fatalf("trace header %+v", m)
	}
	if err := info(f); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Materialize(f.Source())
	if err != nil {
		t.Fatal(err)
	}
	if err := hist(tr); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsV1Gob: a file in the retired v1 gob encoding is an error for
// every verb that reads a trace file, never a panic.
func TestRejectsV1Gob(t *testing.T) {
	tr, err := workloads.NewJacobi().Generate(2, workloads.Params{Scale: 0.05, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode("finepack-trace-v1"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"info":   func() error { return infoCmd([]string{path}) },
		"replay": func() error { return replay([]string{"-paradigm", "finepack", path}) },
		"hist":   func() error { return withTrace([]string{path}, hist) },
	} {
		if err := run(); !errors.Is(err, tracestream.ErrNotStream) {
			t.Errorf("%s on a v1 gob file: err = %v, want ErrNotStream", name, err)
		}
	}
}

func TestReplayCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed replay skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "w.fps")
	if err := gen([]string{"-workload", "jacobi", "-o", path, "-scale", "0.2", "-iters", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-paradigm", "finepack", path}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-paradigm", "nope", path}); err == nil {
		t.Fatal("unknown paradigm accepted")
	}
	if err := replay([]string{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenValidation(t *testing.T) {
	if err := gen([]string{"-workload", "pagerank"}); err == nil {
		t.Fatal("missing -o accepted")
	}
	if err := gen([]string{"-o", "/tmp/x"}); err == nil {
		t.Fatal("missing -workload accepted")
	}
	if err := gen([]string{"-workload", "nope", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWithTraceErrors(t *testing.T) {
	if err := withTrace(nil, func(*trace.Trace) error { return nil }); err == nil {
		t.Fatal("no args accepted")
	}
	if err := withTrace([]string{"/does/not/exist"}, func(*trace.Trace) error { return nil }); err == nil {
		t.Fatal("missing file accepted")
	}
}

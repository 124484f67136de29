package trace

import (
	"io"

	"finepack/internal/gpusim"
)

// Meta carries the trace-level facts a replay needs before (and without)
// touching any iteration data: identity, system size, the single-GPU
// baseline, and how many iterations the stream will yield. It is the
// streaming counterpart of the Trace struct's scalar fields.
type Meta struct {
	// Name identifies the workload or synthesized scenario.
	Name string
	// NumGPUs is the system size the trace was generated for.
	NumGPUs int
	// SingleGPUOpsPerIter is the per-iteration compute work of the
	// single-GPU version of the same problem: the Fig 9 baseline.
	SingleGPUOpsPerIter float64
	// Iterations is the total number of iterations the source yields.
	Iterations int
}

// IterationSource yields a trace's iterations in replay order with
// O(window) memory: one iteration resident at a time, whatever its
// backing — an in-memory Trace, a chunked v2 file, or a statistical
// synthesizer. It is the generator-driven interface the simulator runs
// against instead of a materialized []Iteration.
//
// Sources are responsible for yielding structurally valid iterations
// (Iteration.ValidateIn against their own Meta): file readers validate
// each decoded window, synthesizers are valid by construction, and the
// in-memory adapter rides on Trace.Validate.
type IterationSource interface {
	// Meta returns the stream's trace-level facts. It must be callable
	// before the first Next and must not change across the stream.
	Meta() Meta
	// Next returns the next iteration. The returned Iteration and
	// everything it references are only valid until the following Next or
	// Reset call: sources reuse decode buffers so a billion-store replay
	// never holds more than one window. io.EOF signals a clean end.
	Next() (*Iteration, error)
	// Reset rewinds the source to the first iteration so the same stream
	// can be replayed again (e.g. once per paradigm).
	Reset() error
}

// SliceSource adapts a fully materialized Trace to the IterationSource
// interface, making the in-memory path and the streaming paths
// interchangeable. Iterations are handed out by reference, unmodified, so
// a slice-backed streamed run is bit-identical to the slice run.
type SliceSource struct {
	tr *Trace
	i  int
}

// NewSliceSource wraps an in-memory trace. The trace is not validated
// here; callers that accept untrusted traces validate first (sim.Run
// does, matching its historical behavior).
func NewSliceSource(tr *Trace) *SliceSource {
	return &SliceSource{tr: tr}
}

// Meta implements IterationSource.
func (s *SliceSource) Meta() Meta {
	return Meta{
		Name:                s.tr.Name,
		NumGPUs:             s.tr.NumGPUs,
		SingleGPUOpsPerIter: s.tr.SingleGPUOpsPerIter,
		Iterations:          len(s.tr.Iterations),
	}
}

// Next implements IterationSource.
func (s *SliceSource) Next() (*Iteration, error) {
	if s.i >= len(s.tr.Iterations) {
		return nil, io.EOF
	}
	it := &s.tr.Iterations[s.i]
	s.i++
	return it, nil
}

// Reset implements IterationSource.
func (s *SliceSource) Reset() error {
	s.i = 0
	return nil
}

// Materialize drains a source into a fully in-memory Trace, deep-copying
// each window (sources reuse buffers). It backs the whole-trace analysis
// verbs and is only sensible for traces that fit in memory.
func Materialize(src IterationSource) (*Trace, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	m := src.Meta()
	tr := &Trace{
		Name:                m.Name,
		NumGPUs:             m.NumGPUs,
		SingleGPUOpsPerIter: m.SingleGPUOpsPerIter,
		Iterations:          make([]Iteration, 0, m.Iterations),
	}
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Iterations = append(tr.Iterations, copyIteration(it))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// copyIteration deep-copies one iteration out of a source's reused
// buffers.
func copyIteration(it *Iteration) Iteration {
	out := Iteration{PerGPU: make([]GPUWork, len(it.PerGPU))}
	for g, w := range it.PerGPU {
		cw := GPUWork{ComputeOps: w.ComputeOps}
		if len(w.Stores) > 0 {
			cw.Stores = make([]gpusim.WarpStore, len(w.Stores))
			for i, ws := range w.Stores {
				cp := ws
				cp.Addrs = append([]uint64(nil), ws.Addrs...)
				cw.Stores[i] = cp
			}
		}
		if len(w.Copies) > 0 {
			cw.Copies = append([]Copy(nil), w.Copies...)
		}
		out.PerGPU[g] = cw
	}
	return out
}

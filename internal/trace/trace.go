// Package trace defines the workload trace representation the simulator
// replays: per-iteration, per-GPU compute work plus the two functionally
// equivalent communication encodings the paper evaluates (§V) — a
// warp-level peer-to-peer store stream and a kernel-boundary bulk-copy
// list. It stands in for the NVBit-collected application traces NVAS
// replays.
package trace

import (
	"fmt"

	"finepack/internal/core"
	"finepack/internal/gpusim"
	"finepack/internal/stats"
)

// Copy is one bulk DMA transfer issued at a kernel boundary under the
// memcpy paradigm: the whole replica region is pushed, of which only
// UsefulBytes were actually updated and/or consumed by the destination
// (§II-B "Over-transfer of data").
type Copy struct {
	// Dst is the destination GPU.
	Dst int
	// Bytes is the transferred region size.
	Bytes core.Bytes
	// UsefulBytes is the subset the destination actually needed.
	UsefulBytes core.Bytes
}

// GPUWork is one GPU's work for one iteration.
type GPUWork struct {
	// ComputeOps is the kernel's execution work in abstract operations,
	// fed to the gpusim.ComputeModel.
	ComputeOps float64
	// Stores is the warp-level remote store stream the P2P-paradigm
	// kernel emits, in program order.
	Stores []gpusim.WarpStore
	// Copies is the memcpy-paradigm equivalent, issued after the kernel.
	Copies []Copy
}

// Iteration is one bulk-synchronous step: all GPUs run their work, then a
// system-scoped barrier (which flushes FinePack's queues) ends it.
type Iteration struct {
	PerGPU []GPUWork
}

// Trace is a complete multi-GPU application trace.
type Trace struct {
	// Name identifies the workload (e.g. "jacobi").
	Name string
	// NumGPUs is the system size the trace was generated for.
	NumGPUs int
	// SingleGPUOpsPerIter is the per-iteration compute work of the
	// single-GPU version of the same problem: the Fig 9 baseline.
	SingleGPUOpsPerIter float64
	// Iterations holds the replayable steps.
	Iterations []Iteration
}

// Validate checks structural consistency.
func (t *Trace) Validate() error {
	if t.NumGPUs < 1 {
		return fmt.Errorf("trace %q: NumGPUs = %d", t.Name, t.NumGPUs)
	}
	if t.SingleGPUOpsPerIter <= 0 {
		return fmt.Errorf("trace %q: single-GPU ops must be positive", t.Name)
	}
	for i := range t.Iterations {
		if err := t.Iterations[i].ValidateIn(t.Name, i, t.NumGPUs); err != nil {
			return err
		}
	}
	return nil
}

// ValidateIn checks one iteration's structural consistency within a trace
// of numGPUs GPUs; name and idx only label errors. Streaming sources call
// this per decoded window, so a corrupt or hostile iteration errors out
// before it reaches the simulator.
func (it *Iteration) ValidateIn(name string, idx, numGPUs int) error {
	if len(it.PerGPU) != numGPUs {
		return fmt.Errorf("trace %q iter %d: %d GPU entries, want %d",
			name, idx, len(it.PerGPU), numGPUs)
	}
	for g, w := range it.PerGPU {
		for si, ws := range w.Stores {
			if err := ws.Validate(); err != nil {
				return fmt.Errorf("trace %q iter %d gpu %d store %d: %w",
					name, idx, g, si, err)
			}
			if ws.Dst == g {
				return fmt.Errorf("trace %q iter %d gpu %d store %d: self-store",
					name, idx, g, si)
			}
			if ws.Dst < 0 || ws.Dst >= numGPUs {
				return fmt.Errorf("trace %q iter %d gpu %d store %d: dst %d out of range",
					name, idx, g, si, ws.Dst)
			}
		}
		for ci, c := range w.Copies {
			if c.Dst == g || c.Dst < 0 || c.Dst >= numGPUs {
				return fmt.Errorf("trace %q iter %d gpu %d copy %d: bad dst %d",
					name, idx, g, ci, c.Dst)
			}
			if c.UsefulBytes > c.Bytes {
				return fmt.Errorf("trace %q iter %d gpu %d copy %d: useful %d > bytes %d",
					name, idx, g, ci, c.UsefulBytes, c.Bytes)
			}
		}
	}
	return nil
}

// NumWarpStores counts warp store instructions across the trace.
func (t *Trace) NumWarpStores() uint64 {
	var n uint64
	for _, it := range t.Iterations {
		for _, w := range it.PerGPU {
			n += uint64(len(w.Stores))
		}
	}
	return n
}

// CopyBytes sums memcpy-paradigm bytes (total, useful).
func (t *Trace) CopyBytes() (total, useful core.Bytes) {
	for _, it := range t.Iterations {
		for _, w := range it.PerGPU {
			for _, c := range w.Copies {
				total += c.Bytes
				useful += c.UsefulBytes
			}
		}
	}
	return total, useful
}

// StoreSizeHistogram runs every warp store through the L1 coalescing model
// and tallies the sizes of the transactions egressing L1: Fig 4's
// distribution.
func (t *Trace) StoreSizeHistogram() (*stats.SizeHistogram, error) {
	h := stats.NewSizeHistogram()
	for _, it := range t.Iterations {
		for _, w := range it.PerGPU {
			for _, ws := range w.Stores {
				txs, err := gpusim.Coalesce(ws)
				if err != nil {
					return nil, err
				}
				for _, tx := range txs {
					h.Observe(tx.Size)
				}
			}
		}
	}
	return h, nil
}

package sim

import (
	"fmt"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
	"finepack/internal/gpusim"
	"finepack/internal/memsystem"
	"finepack/internal/pcie"
	"finepack/internal/topo"
)

// Config describes the simulated system (Table III defaults).
type Config struct {
	// Gen selects the PCIe generation (link bandwidth) when Bandwidth
	// is zero.
	Gen pcie.Generation
	// Bandwidth overrides the link bandwidth in bytes/second when
	// positive. A negative value selects an infinite-bandwidth fabric.
	Bandwidth float64
	// Compute is the per-GPU execution-throughput model.
	Compute gpusim.ComputeModel
	// FinePack holds the remote-write-queue/packet parameters.
	FinePack core.Config
	// DMAAPIOverhead is the software cost of issuing one memcpy: the
	// runtime/driver stack traversal of §II-B, paid per copy call.
	DMAAPIOverhead des.Time
	// BarrierLatency is the inter-GPU synchronization cost closing each
	// iteration.
	BarrierLatency des.Time
	// EmissionBatches spreads a kernel's store stream across its compute
	// time in this many batches (compute/communication overlap model).
	EmissionBatches int
	// GPSConsumedFraction is the fraction of pushed lines dynamically
	// consumed by the destination, i.e. kept by GPS's subscription filter.
	GPSConsumedFraction float64
	// FlushTimeout, when positive, flushes a GPU's FinePack queue after
	// that much store inactivity (§IV-B's optional mitigation; the paper
	// — and the default — leave it off to maximize the coalescing
	// window).
	FlushTimeout core.PicoSeconds
	// UMPageBytes is the Unified-Memory migration granularity.
	UMPageBytes int
	// UMFaultLatency is the per-page fault-handling cost on the
	// consumer's critical path (driver fault processing, scaled to the
	// suite's time units like the other software latencies).
	UMFaultLatency des.Time
	// ReadRTT is the remote-load round-trip latency for the RemoteRead
	// paradigm.
	ReadRTT des.Time
	// ReadMLP is the memory-level parallelism available to hide remote
	// load latency (outstanding remote reads per GPU).
	ReadMLP int
	// LocalMemBandwidth is the destination memory system's drain rate
	// behind the de-packetizer's ingress buffer (§IV-C: HBM "has enough
	// bandwidth to match or exceed the rate at which stores can arrive
	// from the inter-GPU interconnect").
	LocalMemBandwidth float64
	// IngressEntries sizes the de-packetizer buffer (§IV-B: 64 entries).
	IngressEntries int
	// CheckData enables byte-accurate end-to-end verification: every
	// delivered packet is applied to a destination memory image and
	// compared against program order at each barrier. Slow; for tests.
	CheckData bool
	// Faults configures link-level fault injection: bit-error rate,
	// scripted bursts/degradations/dead links, and the Ack/Nak replay
	// protocol knobs. The zero value models ideal, error-free links and
	// schedules no fault-path events, so fault-free runs stay
	// bit-identical to builds without the fault model.
	Faults faults.Config
	// EventBudget caps the number of simulator events in one run so a
	// retry-loop bug surfaces as an "event budget exceeded" error rather
	// than an infinite loop. Zero selects a generous default.
	EventBudget uint64
	// Topology, when set, replaces the paper's PCIe fabric with a
	// hierarchical multi-hop one whose per-edge bandwidth/latency/credit
	// parameters come from the spec. Either way messages store-and-forward
	// along static shortest-path routes; nil selects the PCIe fabric
	// (topo.PCIe: 4-GPU leaf switches, one half-duplex trunk per switch
	// pair, the link generation's bandwidth on every edge). The Infinite
	// paradigm elides transfer costs and therefore drops the topology.
	Topology *topo.Spec
}

// DefaultConfig returns the paper's evaluated system: 4 Volta-class GPUs
// is chosen by the caller; links are PCIe 4.0; FinePack uses Table III.
func DefaultConfig() Config {
	// Fixed software latencies are scaled to the suite's scaled-down
	// problem sizes (iterations run in tens of µs rather than the ms of
	// production runs), keeping the overhead-to-work ratios representative.
	return Config{
		Gen:                 pcie.Gen4,
		Compute:             gpusim.GV100(),
		FinePack:            core.DefaultConfig(),
		DMAAPIOverhead:      100 * des.Nanosecond,
		BarrierLatency:      200 * des.Nanosecond,
		EmissionBatches:     64,
		GPSConsumedFraction: 0.75,
		UMPageBytes:         64 << 10,
		UMFaultLatency:      300 * des.Nanosecond,
		ReadRTT:             1200 * des.Nanosecond,
		ReadMLP:             64,
		LocalMemBandwidth:   900e9,
		IngressEntries:      memsystem.DefaultIngressEntries,
	}
}

// linkBandwidth resolves the effective link bandwidth (0 = infinite, per
// the interconnect package convention).
func (c Config) linkBandwidth() float64 {
	if c.Bandwidth < 0 {
		return 0
	}
	if c.Bandwidth > 0 {
		return c.Bandwidth
	}
	return c.Gen.Bandwidth()
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.FinePack.Validate(); err != nil {
		return err
	}
	if c.Compute.OpsPerSecond <= 0 {
		return fmt.Errorf("sim: compute throughput must be positive")
	}
	if c.EmissionBatches <= 0 {
		return fmt.Errorf("sim: emission batches must be positive")
	}
	if c.GPSConsumedFraction < 0 || c.GPSConsumedFraction > 1 {
		return fmt.Errorf("sim: GPS consumed fraction %v outside [0,1]", c.GPSConsumedFraction)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Paradigm selects the inter-GPU communication scheme.
type Paradigm int

const (
	// P2P: every coalesced L1 store becomes its own PCIe write TLP.
	P2P Paradigm = iota
	// DMA: bulk memcpy of replica regions at kernel boundaries.
	DMA
	// FinePack: the paper's proposal.
	FinePack
	// WriteCombining: cacheline-granularity combining without FinePack's
	// repacketization (§VI-A ablation).
	WriteCombining
	// GPS: the GPS-like comparator (§VI-B).
	GPS
	// Infinite: the memcpy paradigm with data transfer time elided — the
	// opportunity bound of Fig 9.
	Infinite
	// UM: Unified-Memory-style page migration — consumers fault whole
	// pages of produced data across the interconnect on their critical
	// path. The §II-A baseline the paper dismisses ("the cost of
	// migrating pages among GPUs ... is too inefficient to be deployed
	// in multi-GPU systems").
	UM
	// RemoteRead: no replication at all — consumers read producer data
	// on demand over the interconnect, stalling the compute pipeline
	// (§II-A: "performing remote reads during computation can stall the
	// compute pipeline and degrade performance").
	RemoteRead
	numParadigms
)

var paradigmNames = [numParadigms]string{
	"p2p", "dma", "finepack", "write-combining", "gps", "infinite-bw", "um",
	"remote-read",
}

func (p Paradigm) String() string {
	if p < 0 || p >= numParadigms {
		return fmt.Sprintf("paradigm(%d)", int(p))
	}
	return paradigmNames[p]
}

// MarshalText implements encoding.TextMarshaler so paradigm-keyed maps
// serialize with readable keys (e.g. in the CLI's JSON output).
func (p Paradigm) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Paradigm) UnmarshalText(b []byte) error {
	for i, n := range paradigmNames {
		if n == string(b) {
			*p = Paradigm(i)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown paradigm %q", b)
}

// ParadigmFromString resolves a paradigm by its String name.
func ParadigmFromString(s string) (Paradigm, error) {
	var p Paradigm
	err := p.UnmarshalText([]byte(s))
	return p, err
}

// Fig9Paradigms lists the paradigms of the headline comparison, in the
// figure's order.
func Fig9Paradigms() []Paradigm {
	return []Paradigm{P2P, DMA, FinePack, Infinite}
}

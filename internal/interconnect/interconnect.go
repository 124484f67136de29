// Package interconnect models the switched inter-GPU fabric as a graph
// of store-and-forward hops: every message follows its route's directed
// edges, serializing on each edge's link at that edge's bandwidth and
// paying its latency, under a credit loop that bounds the bytes in flight
// toward any destination (PCIe's receiver-buffer flow control). Without a
// caller-supplied topology the graph is the paper's PCIe fabric
// (topo.PCIe): 4 GPUs under one switch (§V), or 16 GPUs under four
// switches joined by trunk links (§VI-B's scaling study).
package interconnect

import (
	"fmt"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
	"finepack/internal/topo"
)

// Config describes the fabric.
type Config struct {
	// NumGPUs is the endpoint count.
	NumGPUs int
	// Bandwidth is the per-direction link bandwidth in bytes/second.
	// Zero or negative means an infinite-bandwidth fabric (transfers
	// serialize in zero time), used for the paper's opportunity bound.
	Bandwidth float64
	// HopLatency is the switch plus propagation latency of one hop: a
	// same-switch message pays it once, a cross-switch message twice.
	HopLatency des.Time
	// CreditBytes bounds bytes in flight toward one destination port
	// (receiver buffer size). Zero selects DefaultCreditBytes (256KB).
	// Positive values below one credit unit (64B) are rejected: they
	// would round down to a zero-token pool and deadlock unconditionally.
	CreditBytes int
	// Faults configures link-level fault injection and the Ack/Nak
	// replay protocol. The zero value models ideal, error-free links and
	// keeps the fault path entirely out of the event stream.
	Faults faults.Config
	// Topology, when non-nil, replaces the PCIe fabric built from
	// NumGPUs/Bandwidth/HopLatency with a hierarchical multi-hop graph
	// whose per-edge bandwidth, latency and credit loop govern all
	// transfer costs. Only a supplied topology exposes its edges
	// (NumEdges, the edge counters, HopObserver callbacks).
	Topology *topo.Graph
}

// DefaultCreditBytes is the receiver buffer size used when CreditBytes is
// unset: it covers the bandwidth-delay product of the two-stage
// (egress + ingress) path for max-size bulk chunks, or the credit loop
// halves effective throughput.
const DefaultCreditBytes = 256 << 10

// DefaultConfig returns a PCIe-4.0-class fabric: 32GB/s links and a
// 160ns hop (150ns switch + 10ns propagation).
func DefaultConfig(numGPUs int, bandwidth float64) Config {
	return Config{
		NumGPUs:     numGPUs,
		Bandwidth:   bandwidth,
		HopLatency:  160 * des.Nanosecond,
		CreditBytes: DefaultCreditBytes,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.NumGPUs < 2 {
		return fmt.Errorf("interconnect: need ≥2 GPUs, got %d", c.NumGPUs)
	}
	if c.CreditBytes > 0 && c.CreditBytes < creditUnit {
		return fmt.Errorf("interconnect: CreditBytes %d below one %dB credit unit would yield a zero-token pool and deadlock",
			c.CreditBytes, creditUnit)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Topology != nil && c.Topology.NumGPUs() != c.NumGPUs {
		return fmt.Errorf("interconnect: topology %s has %d GPUs, config has %d",
			c.Topology.Name(), c.Topology.NumGPUs(), c.NumGPUs)
	}
	return nil
}

// creditUnit is the granularity of flow-control credits, mirroring PCIe's
// credit units (headers + payload chunks).
const creditUnit = 64

// Network is the instantiated fabric.
type Network struct {
	cfg     Config
	sched   *des.Scheduler
	credits []*des.TokenPool

	// Stats
	PacketsSent uint64
	BytesSent   core.Bytes
	// perLink counts bytes per endpoint pair, indexed src*NumGPUs+dst —
	// a flat slice, not a formatted-string map, because Send is the
	// fabric's hottest path and key formatting would allocate per packet.
	perLink []core.Bytes

	// Reliability state, populated only when cfg.Faults is enabled
	// (see replay.go). fi == nil skips every fault-path stage.
	fi            *faults.Injector
	replaySlots   []*des.TokenPool // per-egress replay-buffer slots
	inFlight      int              // packets accepted but not yet delivered
	deliveries    uint64           // watchdog progress counter
	lastProgress  uint64
	watchdogArmed bool
	watchdogFn    func() // watchdogTick, bound once

	// Replays counts retransmissions (one per Nak'd attempt),
	// ReplayedBytes the wire bytes those retransmissions re-serialized,
	// RecoveredStalls the credit-loop stalls the watchdog resolved by
	// link-level reset.
	Replays         uint64
	ReplayedBytes   core.Bytes
	RecoveredStalls uint64
	linkErrors      []uint64 // Nak'd attempts per endpoint pair, indexed like perLink
	resets          []Reset

	// obs, when non-nil, receives delivery/replay/reset events
	// (see observer.go).
	obs Observer

	// Hop state (see hop.go): the graph every message is routed over
	// (cfg.Topology, or the PCIe fabric), a copy of its edges, one
	// server per link, a credit pool per windowed edge (nil where the
	// edge has no window), flat per-edge byte/packet counters, the
	// recycled hop pipelines, and the optional per-hop observer.
	graph       *topo.Graph
	edges       []topo.Edge
	linkSrv     []*des.Server
	edgeCred    []*des.TokenPool
	edgeBytes   []core.Bytes
	edgePackets []uint64
	hfree       []*hopXfer
	hopObs      HopObserver
}

// New builds the network on the given scheduler.
func New(sched *des.Scheduler, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CreditBytes <= 0 {
		cfg.CreditBytes = DefaultCreditBytes
	}
	n := &Network{
		cfg:     cfg,
		sched:   sched,
		perLink: make([]core.Bytes, cfg.NumGPUs*cfg.NumGPUs),
	}
	if cfg.Faults.Enabled() {
		fi, err := faults.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		n.fi = fi
		n.cfg.Faults = fi.Config() // protocol knobs with defaults applied
		n.linkErrors = make([]uint64, cfg.NumGPUs*cfg.NumGPUs)
		n.watchdogFn = n.watchdogTick
		for i := 0; i < cfg.NumGPUs; i++ {
			n.replaySlots = append(n.replaySlots,
				des.NewTokenPool(sched, n.cfg.Faults.ReplayBufferDepth))
		}
	}
	for i := 0; i < cfg.NumGPUs; i++ {
		n.credits = append(n.credits, des.NewTokenPool(sched, cfg.CreditBytes/creditUnit))
	}
	n.graph = cfg.Topology
	if n.graph == nil {
		n.graph = topo.PCIe(cfg.NumGPUs, cfg.Bandwidth, core.PicoSeconds(cfg.HopLatency))
	}
	ne := n.graph.NumEdges()
	n.edges = make([]topo.Edge, ne)
	n.edgeCred = make([]*des.TokenPool, ne)
	n.edgeBytes = make([]core.Bytes, ne)
	n.edgePackets = make([]uint64, ne)
	for e := range n.edges {
		edge := n.graph.Edge(e)
		n.edges[e] = edge
		if edge.CreditBytes > 0 {
			n.edgeCred[e] = des.NewTokenPool(sched, edge.CreditBytes/creditUnit)
		}
	}
	n.linkSrv = make([]*des.Server, n.graph.NumLinks())
	for l := range n.linkSrv {
		n.linkSrv[l] = des.NewServer(sched)
	}
	return n, nil
}

// Config returns the resolved configuration the network runs with
// (defaults substituted).
func (n *Network) Config() Config { return n.cfg }

// Send transmits wireBytes from src to dst; done (may be nil) fires when
// the last byte arrives at the destination port. The message holds
// credits of the destination's receiver buffer end to end and
// store-and-forwards along its route, serializing on every hop (hop.go).
// On a fault-injected fabric it also holds a replay-buffer slot until
// its Ack and retransmits after every Nak (replay.go).
//
//finepack:hotpath per-packet transfer pipeline entry
func (n *Network) Send(src, dst int, wireBytes int, done func()) {
	if src == dst {
		panic(fmt.Sprintf("interconnect: self-send on GPU %d", src))
	}
	if wireBytes <= 0 {
		wireBytes = 1
	}
	n.PacketsSent++
	n.BytesSent += core.Bytes(wireBytes)
	n.perLink[src*n.cfg.NumGPUs+dst] += core.Bytes(wireBytes)

	x := n.getHopXfer()
	x.src, x.dst = int32(src), int32(dst)
	x.hop = 0
	x.wireBytes = wireBytes
	x.start = n.sched.Now()
	x.done = done
	x.stage = stageHop
	if n.fi != nil {
		x.try = 0
		x.stage = stageSlot
		n.inFlight++
		n.armWatchdog()
	}
	n.credits[dst].Acquire(creditsFor(wireBytes, n.cfg.CreditBytes), x.step)
}

// LinkBytes returns bytes sent on the src→dst endpoint pair.
func (n *Network) LinkBytes(src, dst int) core.Bytes {
	if src < 0 || dst < 0 || src >= n.cfg.NumGPUs || dst >= n.cfg.NumGPUs {
		return 0
	}
	return n.perLink[src*n.cfg.NumGPUs+dst]
}

package topo

import (
	"fmt"

	"finepack/internal/core"
)

// Edge is one directed link of the instantiated topology.
type Edge struct {
	// From and To are vertex IDs (GPUs first, then switches).
	From, To int
	// Bandwidth is the per-direction bandwidth in bytes/second.
	Bandwidth float64
	// Latency is the per-hop traversal latency (switch + propagation).
	Latency core.PicoSeconds
	// CreditBytes bounds bytes in flight on this edge; zero means the
	// edge has no window of its own.
	CreditBytes int
	// Link is the index of the serializer the edge transmits on. Build
	// gives every directed edge its own; edges sharing a Link (the PCIe
	// fabric's half-duplex trunks) contend for one serializer.
	Link int
	// Inter marks an inter-node edge (either endpoint outside every
	// GPU node, or endpoints in different nodes).
	Inter bool
}

// Graph is an instantiated topology: the vertex/edge structure plus the
// static shortest-path route tables the fabric forwards by. Graphs are
// immutable once built (by Build or PCIe) and safe to share across runs.
type Graph struct {
	name    string
	numGPUs int
	verts   int
	gpuNode []int // node index per GPU
	edges   []Edge
	links   int      // serializer count (see Edge.Link)
	labels  []string // per-edge display labels, built once

	// routes is a flat arena of edge IDs; the path for (src,dst) is
	// routeArc[routeOff[src*numGPUs+dst]:routeOff[src*numGPUs+dst+1]].
	// Pair-indexed offsets keep Route a two-load slice expression, which
	// is what makes per-message lookup allocation-free.
	routeOff []int32
	routeArc []int32

	spec *Spec
}

// Build expands a validated Spec into its Graph, computing the route
// tables. The spec is validated (and normalized) first if the caller has
// not done so; Build never mutates a spec that already validated.
func Build(s *Spec) (*Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{name: s.Name, spec: s}
	if s.Nodes != 0 {
		g.buildHierarchical(s)
	} else {
		g.buildCustom(s)
	}
	if err := g.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// PCIeSwitchRadix is the leaf-switch radix of the paper's PCIe fabric: 4
// GPUs under one switch (§V), 16 under four (§VI-B).
const PCIeSwitchRadix = 4

// PCIe builds the paper's flat PCIe fabric: GPUs hang off leaf switches
// of PCIeSwitchRadix GPUs each, and every pair of leaf switches is joined
// by one trunk. A GPU→switch edge and a trunk edge each cost hopLatency
// (switch + propagation); a switch→GPU edge costs none, so a same-switch
// message pays one hop latency and a cross-switch message two. Each trunk
// is half-duplex: its two directions share one serializer, so opposing
// flows contend for it. No edge has a credit window of its own — the
// destination's receiver buffer is the fabric's only flow control. A
// bandwidth of zero serializes in zero time (the opportunity bound).
func PCIe(gpus int, bandwidth float64, hopLatency core.PicoSeconds) *Graph {
	switches := (gpus + PCIeSwitchRadix - 1) / PCIeSwitchRadix
	g := &Graph{name: "pcie", numGPUs: gpus, verts: gpus + switches, gpuNode: make([]int, gpus)}
	for gpu := 0; gpu < gpus; gpu++ {
		leaf := gpus + gpu/PCIeSwitchRadix
		g.addEdge(Edge{From: gpu, To: leaf, Bandwidth: bandwidth, Latency: hopLatency})
		g.addEdge(Edge{From: leaf, To: gpu, Bandwidth: bandwidth})
	}
	for a := gpus; a < g.verts; a++ {
		for b := a + 1; b < g.verts; b++ {
			g.addEdge(Edge{From: a, To: b, Bandwidth: bandwidth, Latency: hopLatency})
			back := g.edges[len(g.edges)-1]
			back.From, back.To = b, a
			g.edges = append(g.edges, back)
		}
	}
	if err := g.finish(); err != nil {
		panic(err) // every GPU reaches every other through its leaf switch
	}
	return g
}

// finish labels the edges and computes the route tables.
func (g *Graph) finish() error {
	g.labels = make([]string, len(g.edges))
	for i, e := range g.edges {
		g.labels[i] = fmt.Sprintf("%s->%s", g.vertName(e.From), g.vertName(e.To))
	}
	return g.buildRoutes()
}

// addEdge appends a directed edge on a serializer of its own.
func (g *Graph) addEdge(e Edge) {
	e.Link = g.links
	g.links++
	g.edges = append(g.edges, e)
}

// addDuplex appends the two directed edges of one physical link.
func (g *Graph) addDuplex(a, b int, c LinkClass, inter bool) {
	g.addEdge(Edge{From: a, To: b, Bandwidth: c.Bandwidth, Latency: c.Latency, CreditBytes: c.CreditBytes, Inter: inter})
	g.addEdge(Edge{From: b, To: a, Bandwidth: c.Bandwidth, Latency: c.Latency, CreditBytes: c.CreditBytes, Inter: inter})
}

// buildHierarchical expands nodes × gpusPerNode: vertices are the GPUs
// (0..G-1), one leaf switch per node (G..G+nodes-1), and for nodes > 1 a
// spine switch (G+nodes). Every GPU links to its node's leaf switch with
// the intra-node class; every leaf switch links to the spine with the
// inter-node class, so all inter-node traffic shares the spine ports —
// the contention the crossover experiment studies.
func (g *Graph) buildHierarchical(s *Spec) {
	gpus := s.Nodes * s.GPUsPerNode
	g.numGPUs = gpus
	g.verts = gpus + s.Nodes
	if s.Nodes > 1 {
		g.verts++ // spine
	}
	g.gpuNode = make([]int, gpus)
	for gpu := 0; gpu < gpus; gpu++ {
		node := gpu / s.GPUsPerNode
		g.gpuNode[gpu] = node
		g.addDuplex(gpu, gpus+node, s.IntraNode, false)
	}
	if s.Nodes > 1 {
		spine := gpus + s.Nodes
		for node := 0; node < s.Nodes; node++ {
			g.addDuplex(gpus+node, spine, s.InterNode, true)
		}
	}
}

// buildCustom instantiates an explicit graph. An edge is inter-node when
// its endpoints are GPUs of different nodes or when either endpoint is a
// switch bridging different nodes; with switches, node membership is
// inferred from the GPUs a switch reaches — a link is intra only if both
// endpoints resolve to the same single node. For simplicity and
// determinism the rule used is structural: GPU–GPU links compare the
// GPUs' nodes, and any link touching a switch is classified by whether
// the switch's directly attached GPUs span one node (intra) or not
// (inter).
func (g *Graph) buildCustom(s *Spec) {
	g.numGPUs = s.GPUs
	g.verts = s.GPUs + s.Switches
	g.gpuNode = append([]int(nil), s.GPUNode...)

	// Resolve each switch to a node: the single node of its attached
	// GPUs, or -1 (fabric tier) when it attaches GPUs of several nodes
	// or no GPUs at all. Iterates the declaration-ordered Links slice,
	// never a map.
	const unset, mixed = -2, -1
	swNode := make([]int, s.Switches)
	for i := range swNode {
		swNode[i] = unset
	}
	note := func(sw, node int) {
		idx := sw - s.GPUs
		switch swNode[idx] {
		case unset:
			swNode[idx] = node
		case node:
		default:
			swNode[idx] = mixed
		}
	}
	for _, l := range s.Links {
		if l.A < s.GPUs && l.B >= s.GPUs {
			note(l.B, s.GPUNode[l.A])
		}
		if l.B < s.GPUs && l.A >= s.GPUs {
			note(l.A, s.GPUNode[l.B])
		}
	}
	nodeOf := func(v int) int {
		if v < s.GPUs {
			return s.GPUNode[v]
		}
		return swNode[v-s.GPUs]
	}
	for _, l := range s.Links {
		na, nb := nodeOf(l.A), nodeOf(l.B)
		inter := na != nb || na < 0
		g.addDuplex(l.A, l.B, l.LinkClass, inter)
	}
}

// vertName labels a vertex for edge labels and diagnostics.
func (g *Graph) vertName(v int) string {
	if v < g.numGPUs {
		return fmt.Sprintf("gpu%d", v)
	}
	return fmt.Sprintf("sw%d", v-g.numGPUs)
}

// buildRoutes computes the static shortest-path route table: one BFS per
// source GPU over the unweighted graph. Determinism: the adjacency lists
// follow edge-declaration order and BFS discovery order breaks ties, so
// the same spec always yields the same paths. Every ordered GPU pair must
// be reachable or the build fails.
func (g *Graph) buildRoutes() error {
	// Adjacency: out-edge IDs per vertex, in edge-declaration order.
	adjOff := make([]int32, g.verts+1)
	for _, e := range g.edges {
		adjOff[e.From+1]++
	}
	for v := 0; v < g.verts; v++ {
		adjOff[v+1] += adjOff[v]
	}
	adj := make([]int32, len(g.edges))
	cursor := append([]int32(nil), adjOff[:g.verts]...)
	for id, e := range g.edges {
		adj[cursor[e.From]] = int32(id)
		cursor[e.From]++
	}

	n := g.numGPUs
	g.routeOff = make([]int32, n*n+1)
	parent := make([]int32, g.verts) // in-edge on the BFS tree, -1 unvisited
	queue := make([]int32, 0, g.verts)
	scratch := make([]int32, 0, 8)

	// First pass computes lengths, second fills the arena — one exact
	// allocation for routeArc.
	var total int32
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for i := 1; i < len(g.routeOff); i++ {
				g.routeOff[i] += g.routeOff[i-1]
			}
			g.routeArc = make([]int32, total)
		}
		for src := 0; src < n; src++ {
			for v := range parent {
				parent[v] = -1
			}
			parent[src] = -2 // root marker
			queue = append(queue[:0], int32(src))
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, id := range adj[adjOff[v]:adjOff[v+1]] {
					to := g.edges[id].To
					if parent[to] != -1 {
						continue
					}
					parent[to] = id
					queue = append(queue, int32(to))
				}
			}
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				if parent[dst] == -1 {
					return fmt.Errorf("topo: %s: no path from gpu%d to gpu%d", g.name, src, dst)
				}
				scratch = scratch[:0]
				for v := int32(dst); parent[v] != -2; v = int32(g.edges[parent[v]].From) {
					scratch = append(scratch, parent[v])
				}
				if pass == 0 {
					g.routeOff[src*n+dst+1] = int32(len(scratch))
					total += int32(len(scratch))
					continue
				}
				off := g.routeOff[src*n+dst]
				for i := range scratch {
					g.routeArc[off+int32(i)] = scratch[len(scratch)-1-i]
				}
			}
		}
	}
	return nil
}

// Name returns the topology's name.
func (g *Graph) Name() string { return g.name }

// Spec returns the normalized spec the graph was built from (nil for the
// PCIe fabric, which has no spec form).
func (g *Graph) Spec() *Spec { return g.spec }

// NumGPUs returns the endpoint count.
func (g *Graph) NumGPUs() int { return g.numGPUs }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns directed edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// NumLinks returns the serializer count: every Edge.Link is below it.
func (g *Graph) NumLinks() int { return g.links }

// EdgeLabel returns a stable display label for edge e ("gpu0->sw0").
func (g *Graph) EdgeLabel(e int) string { return g.labels[e] }

// Route returns the edge-ID path from src to dst as a shared subslice of
// the route arena. Callers must not mutate it.
//
//finepack:hotpath per-message route lookup on the fabric send path
func (g *Graph) Route(src, dst int) []int32 {
	i := src*g.numGPUs + dst
	return g.routeArc[g.routeOff[i]:g.routeOff[i+1]]
}

// Hops returns the hop count between two GPUs.
func (g *Graph) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return len(g.Route(src, dst))
}

// NodeOf returns the node index a GPU belongs to.
func (g *Graph) NodeOf(gpu int) int { return g.gpuNode[gpu] }

// SameNode reports whether two GPUs share a node (intra-node pair).
//
//finepack:hotpath traffic classification on the per-store accounting path
func (g *Graph) SameNode(a, b int) bool { return g.gpuNode[a] == g.gpuNode[b] }

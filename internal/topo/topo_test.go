package topo

import (
	"bytes"
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	cases := []struct {
		name        string
		gpus, nodes int
		hasInter    bool
		intraHops   int // gpu0 -> gpu1
		interHops   int // gpu0 -> last gpu
	}{
		{PresetFlat8, 8, 1, false, 2, 2},
		{PresetDGX2x8, 16, 2, true, 2, 4},
		{PresetPod4x8, 32, 4, true, 2, 4},
	}
	for _, c := range cases {
		s, err := Preset(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.NumGPUs() != c.gpus {
			t.Errorf("%s: NumGPUs = %d, want %d", c.name, s.NumGPUs(), c.gpus)
		}
		g, err := Build(s)
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		if g.NumGPUs() != c.gpus {
			t.Errorf("%s: graph NumGPUs = %d, want %d", c.name, g.NumGPUs(), c.gpus)
		}
		if got := g.Hops(0, 1); got != c.intraHops {
			t.Errorf("%s: Hops(0,1) = %d, want %d", c.name, got, c.intraHops)
		}
		if got := g.Hops(0, c.gpus-1); got != c.interHops {
			t.Errorf("%s: Hops(0,%d) = %d, want %d", c.name, c.gpus-1, got, c.interHops)
		}
		var inter bool
		for e := 0; e < g.NumEdges(); e++ {
			if g.Edge(e).Inter {
				inter = true
			}
		}
		if inter != c.hasInter {
			t.Errorf("%s: has inter-node edges = %v, want %v", c.name, inter, c.hasInter)
		}
		if c.hasInter && g.SameNode(0, c.gpus-1) {
			t.Errorf("%s: gpu0 and gpu%d should be in different nodes", c.name, c.gpus-1)
		}
		if !g.SameNode(0, 1) {
			t.Errorf("%s: gpu0 and gpu1 should share a node", c.name)
		}
	}
	if _, err := Preset("nosuch"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestRouteEndpoints(t *testing.T) {
	s, _ := Preset(PresetPod4x8)
	g, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumGPUs()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			route := g.Route(src, dst)
			if len(route) == 0 {
				t.Fatalf("empty route %d->%d", src, dst)
			}
			if from := g.Edge(int(route[0])).From; from != src {
				t.Fatalf("route %d->%d starts at vertex %d", src, dst, from)
			}
			if to := g.Edge(int(route[len(route)-1])).To; to != dst {
				t.Fatalf("route %d->%d ends at vertex %d", src, dst, to)
			}
			for i := 1; i < len(route); i++ {
				if g.Edge(int(route[i-1])).To != g.Edge(int(route[i])).From {
					t.Fatalf("route %d->%d discontinuous at hop %d", src, dst, i)
				}
			}
			// Inter-node pairs must cross an inter-node edge; intra pairs
			// must not.
			var crossed bool
			for _, e := range route {
				if g.Edge(int(e)).Inter {
					crossed = true
				}
			}
			if crossed == g.SameNode(src, dst) {
				t.Fatalf("route %d->%d inter-edge crossing %v contradicts SameNode %v",
					src, dst, crossed, g.SameNode(src, dst))
			}
		}
	}
}

func TestCustomSpec(t *testing.T) {
	// Two 2-GPU nodes, one switch each, switches joined directly:
	// vertices gpu0,gpu1,gpu2,gpu3,sw0(=4),sw1(=5).
	nv := LinkClass{Bandwidth: 100e9, Latency: 200_000}
	ib := LinkClass{Bandwidth: 20e9, Latency: 900_000}
	s := &Spec{
		Name:     "twin",
		GPUs:     4,
		Switches: 2,
		GPUNode:  []int{0, 0, 1, 1},
		Links: []Link{
			{A: 0, B: 4, LinkClass: nv},
			{A: 1, B: 4, LinkClass: nv},
			{A: 2, B: 5, LinkClass: nv},
			{A: 3, B: 5, LinkClass: nv},
			{A: 4, B: 5, LinkClass: ib},
		},
	}
	g, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Hops(0, 1); got != 2 {
		t.Errorf("intra hops = %d, want 2", got)
	}
	if got := g.Hops(0, 3); got != 3 {
		t.Errorf("inter hops = %d, want 3", got)
	}
	// Credit default was filled in place.
	if s.Links[0].CreditBytes != DefaultEdgeCreditBytes {
		t.Errorf("credit default not normalized: %d", s.Links[0].CreditBytes)
	}
	// Canonical JSON round-trips through ParseSpec to the same bytes.
	js := s.CanonicalJSON()
	s2, err := ParseSpec(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, s2.CanonicalJSON()) {
		t.Error("canonical JSON not stable across a parse round-trip")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty", Spec{Name: "x"}, "empty"},
		{"mixed", Spec{Name: "x", Nodes: 2, GPUsPerNode: 2, GPUs: 4}, "mixes"},
		{"no-name", Spec{Nodes: 1, GPUsPerNode: 8}, "name"},
		{"one-gpu", Spec{Name: "x", Nodes: 1, GPUsPerNode: 1}, "outside"},
		{"no-bw", Spec{Name: "x", Nodes: 1, GPUsPerNode: 8}, "bandwidth"},
		{"no-inter", Spec{Name: "x", Nodes: 2, GPUsPerNode: 4,
			IntraNode: LinkClass{Bandwidth: 1e9}}, "inter_node"},
		{"tiny-credit", Spec{Name: "x", Nodes: 1, GPUsPerNode: 8,
			IntraNode: LinkClass{Bandwidth: 1e9, CreditBytes: 32}}, "credit"},
		{"self-loop", Spec{Name: "x", GPUs: 2, Links: []Link{
			{A: 0, B: 0, LinkClass: LinkClass{Bandwidth: 1e9}}}}, "self-loop"},
		{"no-links", Spec{Name: "x", GPUs: 2}, "no links"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
	// A disconnected custom graph builds routes and fails there.
	disc := &Spec{Name: "disc", GPUs: 4, Links: []Link{
		{A: 0, B: 1, LinkClass: LinkClass{Bandwidth: 1e9}},
		{A: 2, B: 3, LinkClass: LinkClass{Bandwidth: 1e9}},
	}}
	if _, err := Build(disc); err == nil || !strings.Contains(err.Error(), "no path") {
		t.Errorf("disconnected graph: error %v, want 'no path'", err)
	}
}

// TestPCIeFabric pins the flat PCIe graph: hop latency on the GPU→switch
// and trunk edges only, no per-edge credit window, and each trunk's two
// directions on one shared (half-duplex) link.
func TestPCIeFabric(t *testing.T) {
	const hop = 160_000
	g := PCIe(8, 32e9, hop)
	if g.NumEdges() != 18 || g.NumLinks() != 17 {
		t.Fatalf("edges/links = %d/%d, want 18/17", g.NumEdges(), g.NumLinks())
	}
	fwd, back := g.Route(0, 4), g.Route(4, 0)
	if len(fwd) != 3 || len(back) != 3 {
		t.Fatalf("cross-switch routes %v / %v, want 3 hops each", fwd, back)
	}
	if a, b := g.Edge(int(fwd[1])), g.Edge(int(back[1])); a.Link != b.Link || a.From != b.To {
		t.Fatalf("trunk directions %+v / %+v must share one link", a, b)
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(e)
		wantLat := 0
		if edge.To >= g.NumGPUs() {
			wantLat = hop
		}
		if int(edge.Latency) != wantLat || edge.CreditBytes != 0 || edge.Bandwidth != 32e9 {
			t.Errorf("edge %s = %+v, want latency %d, no window", g.EdgeLabel(e), edge, wantLat)
		}
	}
}

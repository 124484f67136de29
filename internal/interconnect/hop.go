package interconnect

// Hop engine: every message follows the graph's static shortest-path
// route, store-and-forwarding through one des.Server per link
// (serialization at the edge's bandwidth) with the edge's latency and,
// where the edge has one, its own credit window.
//
// Flow control composes two loops: the destination's receiver-buffer
// credits are acquired once end-to-end (so credit-stall sampling and the
// fault watchdog see one signal on every fabric), and a windowed edge
// additionally bounds its own bytes in flight — acquired before the hop
// serializes, released when the hop's last byte arrives at the far end.
// Both releases are unconditional, and edges are traversed in strict
// route order after the destination credits are already held, so the
// loops cannot deadlock against each other. The PCIe fabric's edges have
// no window: the destination loop is its only flow control.
//
// Event economy: an edge without a window serializes without a credit
// acquire, and a zero-latency final hop delivers inline rather than
// through a zero-delay event — the message has arrived when its last
// byte leaves the destination's ingress link. Earlier hops always pay
// their latency through the scheduler, even a zero one. The PCIe fabric
// thus fires exactly the events of an egress → [trunk] → ingress
// pipeline, same-timestamp ordering included.

import (
	"finepack/internal/core"
	"finepack/internal/des"
)

// hopXfer carries one ideal-path message across its route hop by hop,
// with the stage callbacks pre-bound once at construction and the object
// recycled through Network.hfree — a steady packet stream allocates
// nothing per message. The fault-injected path (replay.go) keeps its own
// bookkeeping and does not use hopXfer.
type hopXfer struct {
	n           *Network
	route       []int32
	hop         int
	src, dst    int
	wireBytes   int
	dstCredits  core.Credits
	edgeCredits core.Credits
	hopStart    des.Time
	start       des.Time
	done        func()

	acquireEdge func()
	serialize   func()
	forward     func()
	arrived     func()
}

//finepack:allow hotalloc -- the hop-pipeline closures bind once per pooled hopXfer on the freelist miss path and are reused for the object's lifetime
func (n *Network) getHopXfer() *hopXfer {
	if len(n.hfree) > 0 {
		x := n.hfree[len(n.hfree)-1]
		n.hfree[len(n.hfree)-1] = nil
		n.hfree = n.hfree[:len(n.hfree)-1]
		return x
	}
	x := &hopXfer{n: n}
	x.acquireEdge = func() {
		nw := x.n
		e := x.route[x.hop]
		x.hopStart = nw.sched.Now()
		pool := nw.edgeCred[e]
		if pool == nil {
			x.serialize()
			return
		}
		ec := x.wireBytes / creditUnit
		if x.wireBytes%creditUnit != 0 {
			ec++
		}
		// A message larger than the edge's whole buffer streams through it
		// chunk by chunk; it can never hold more credits than exist.
		if max := nw.edges[e].CreditBytes / creditUnit; ec > max {
			ec = max
		}
		x.edgeCredits = core.Credits(ec)
		pool.Acquire(ec, x.serialize)
	}
	x.serialize = func() {
		nw := x.n
		edge := &nw.edges[x.route[x.hop]]
		ser := des.DurationForBytes(uint64(x.wireBytes), edge.Bandwidth)
		nw.linkSrv[edge.Link].Request(ser, x.forward)
	}
	x.forward = func() {
		nw := x.n
		lat := nw.edges[x.route[x.hop]].Latency
		if lat == 0 && x.hop == len(x.route)-1 {
			x.arrived()
			return
		}
		nw.sched.After(des.Time(lat), x.arrived)
	}
	x.arrived = func() {
		nw := x.n
		e := x.route[x.hop]
		if pool := nw.edgeCred[e]; pool != nil {
			pool.Release(int(x.edgeCredits))
		}
		nw.edgeBytes[e] += core.Bytes(x.wireBytes)
		nw.edgePackets[e]++
		if nw.hopObs != nil {
			nw.hopObs.HopForwarded(int(e), x.src, x.dst, x.wireBytes, x.hopStart, nw.sched.Now())
		}
		x.hop++
		if x.hop < len(x.route) {
			x.acquireEdge()
			return
		}
		nw.credits[x.dst].Release(int(x.dstCredits))
		if nw.obs != nil {
			nw.obs.MessageDelivered(x.src, x.dst, x.wireBytes, x.start, nw.sched.Now())
		}
		done := x.done
		x.done = nil
		x.route = nil
		nw.hfree = append(nw.hfree, x)
		if done != nil {
			done()
		}
	}
	return x
}

// NumEdges returns the directed edge count of a caller-supplied
// topology (0 on the PCIe fabric, whose edges stay internal).
func (n *Network) NumEdges() int {
	if n.cfg.Topology == nil {
		return 0
	}
	return len(n.edges)
}

// EdgeBytes returns the wire bytes forwarded over directed edge e.
func (n *Network) EdgeBytes(e int) core.Bytes { return n.edgeBytes[e] }

// EdgePackets returns the packets forwarded over directed edge e.
func (n *Network) EdgePackets(e int) uint64 { return n.edgePackets[e] }

// EdgeBusy returns the cumulative busy (serializing) time of directed
// edge e's link; deltas between samples give windowed edge utilization.
func (n *Network) EdgeBusy(e int) des.Time { return n.linkSrv[n.edges[e].Link].Busy }

// InterNodeEdgeBytes sums the wire bytes forwarded over inter-node edges
// — the traffic that actually crossed the slow fabric tier, counted per
// hop.
func (n *Network) InterNodeEdgeBytes() core.Bytes {
	var sum core.Bytes
	for e, b := range n.edgeBytes {
		if n.edges[e].Inter {
			sum += b
		}
	}
	return sum
}

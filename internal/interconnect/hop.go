package interconnect

// Hop engine: the one send path. Every message, on an ideal or a
// fault-injected fabric, follows the graph's static shortest-path route,
// store-and-forwarding through one des.Server per link (serialization at
// the edge's bandwidth) with the edge's latency and, where the edge has
// one, its own credit window.
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
// Under fault injection the data-link layer's Ack/Nak protocol (see
// replay.go) wraps the same hops as extra stages of the same record,
// each taken only when n.fi != nil: a replay-buffer slot is held from
// after the destination credits until the Ack, every attempt checks the
// link state and scales each hop's bandwidth by its lane-width fraction,
// the CRC lottery is drawn when the last hop arrives, and a Nak'd
// attempt re-traverses the whole route after its backoff — taking the
// edge windows exactly like a first attempt.
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

// hopXfer carries one message across its route. Every continuation is
// the one pre-bound step, which dispatches on stage; the record is
// recycled through Network.hfree, so a steady packet stream allocates
// nothing per message. Messages stalled on destination credits each hold
// a record, so it stays small: the route is looked up per stage rather
// than cached, and the credit counts are recomputed from wireBytes when
// released.
type hopXfer struct {
	n         *Network
	step      func() // advance, bound once per record
	done      func()
	start     des.Time // Send time, for the MessageDelivered span
	hopStart  des.Time // current hop's start, for the HopForwarded span
	frac      float64  // fault path: the attempt's lane-width fraction
	try       int      // fault path: Nak'd attempts so far
	wireBytes int
	src, dst  int32
	hop       int32
	stage     hopStage
}

// hopStage names what a hopXfer's step does next.
type hopStage uint8

const (
	stageHop       hopStage = iota // destination credits held: start the current hop
	stageSlot                      // destination credits held: take a replay slot (fault path)
	stageAttempt                   // replay slot held or backoff expired: start an attempt (fault path)
	stageSerialize                 // edge window held: serialize on the edge's link
	stageForward                   // serialized: pay the edge's latency
	stageArrived                   // last byte at the far end of the edge
)

//finepack:allow hotalloc -- the step method value binds once per pooled hopXfer on the freelist miss path and is reused for the object's lifetime
func (n *Network) getHopXfer() *hopXfer {
	if len(n.hfree) > 0 {
		x := n.hfree[len(n.hfree)-1]
		n.hfree[len(n.hfree)-1] = nil
		n.hfree = n.hfree[:len(n.hfree)-1]
		return x
	}
	x := &hopXfer{n: n}
	x.step = x.advance
	return x
}

// creditsFor returns the credits a wireBytes message holds in a buffer of
// bufBytes: a message larger than the whole buffer streams through it
// chunk by chunk and can never hold more credits than exist.
func creditsFor(wireBytes, bufBytes int) int {
	c := (wireBytes + creditUnit - 1) / creditUnit
	if max := bufBytes / creditUnit; c > max {
		c = max
	}
	return c
}

// route returns the message's route, a slice of the graph's route arena.
func (x *hopXfer) route() []int32 { return x.n.graph.Route(int(x.src), int(x.dst)) }

// advance runs the message's next stage.
func (x *hopXfer) advance() {
	switch x.stage {
	case stageHop:
		x.acquireEdge()
	case stageSlot:
		x.stage = stageAttempt
		x.n.replaySlots[x.src].Acquire(1, x.step)
	case stageAttempt:
		x.attempt()
	case stageSerialize:
		x.serialize()
	case stageForward:
		x.forward()
	case stageArrived:
		x.arrived()
	}
}

// attempt starts one transmission along the route. A link the LTSSM
// reports down serializes nothing: the replay timer expires without an
// Ack and the packet stays in the replay buffer. Otherwise the attempt's
// lane width is fixed at its start and every hop serializes at it.
func (x *hopXfer) attempt() {
	n := x.n
	now := n.sched.Now()
	if n.fi.IsDown(int(x.src), int(x.dst), now) {
		x.nak()
		return
	}
	x.frac = n.fi.BandwidthFraction(int(x.src), int(x.dst), now)
	x.hop = 0
	x.acquireEdge()
}

// acquireEdge starts the current hop: it takes the edge's window, if the
// edge has one, then serializes.
func (x *hopXfer) acquireEdge() {
	n := x.n
	e := x.route()[x.hop]
	x.hopStart = n.sched.Now()
	pool := n.edgeCred[e]
	if pool == nil {
		x.serialize()
		return
	}
	x.stage = stageSerialize
	pool.Acquire(creditsFor(x.wireBytes, n.edges[e].CreditBytes), x.step)
}

func (x *hopXfer) serialize() {
	n := x.n
	edge := &n.edges[x.route()[x.hop]]
	bw := edge.Bandwidth
	if n.fi != nil && bw > 0 {
		bw *= x.frac // lane down-training stretches serialization
	}
	x.stage = stageForward
	n.linkSrv[edge.Link].Request(des.DurationForBytes(uint64(x.wireBytes), bw), x.step)
}

func (x *hopXfer) forward() {
	n := x.n
	route := x.route()
	lat := n.edges[route[x.hop]].Latency
	if lat == 0 && int(x.hop) == len(route)-1 {
		x.arrived()
		return
	}
	x.stage = stageArrived
	n.sched.After(des.Time(lat), x.step)
}

// arrived retires the current hop and starts the next one; after the last
// hop the destination checks the CRC (fault path) and accepts the
// message.
func (x *hopXfer) arrived() {
	n := x.n
	route := x.route()
	e := route[x.hop]
	if pool := n.edgeCred[e]; pool != nil {
		pool.Release(creditsFor(x.wireBytes, n.edges[e].CreditBytes))
	}
	n.edgeBytes[e] += core.Bytes(x.wireBytes)
	n.edgePackets[e]++
	if n.hopObs != nil {
		n.hopObs.HopForwarded(int(e), int(x.src), int(x.dst), x.wireBytes, x.hopStart, n.sched.Now())
	}
	x.hop++
	if int(x.hop) < len(route) {
		x.acquireEdge()
		return
	}
	if n.fi != nil {
		if n.fi.Corrupted(int(x.src), int(x.dst), x.wireBytes, n.sched.Now()) {
			x.nak()
			return
		}
		n.replaySlots[x.src].Release(1) // Ack: the replay slot frees
		n.deliveries++
		n.inFlight--
	}
	n.credits[x.dst].Release(creditsFor(x.wireBytes, n.cfg.CreditBytes))
	if n.obs != nil {
		n.obs.MessageDelivered(int(x.src), int(x.dst), x.wireBytes, x.start, n.sched.Now())
	}
	done := x.done
	x.done = nil
	n.hfree = append(n.hfree, x)
	if done != nil {
		done()
	}
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

package interconnect

import (
	"fmt"
	"sort"
	"strings"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
)

// Reliability path: when fault injection is enabled the network runs a
// data-link-layer Ack/Nak protocol over the same hops and the same
// end-to-end destination credit loop.
//
//   - Per-edge credit windows are not honoured here. attempt serializes
//     each hop on the edge's link but never acquires the edge's window the
//     ideal path's hopXfer takes, so under fault injection on a
//     caller-supplied topology with windowed edges those windows are
//     bypassed. The flat PCIe fabric has no edge windows, so it is
//     unaffected. Honouring them could change fault-injected numbers on
//     windowed topologies such as dgx2x8.
//   - Every transmission attempt re-serializes the packet on every hop of
//     its route; the receiver then draws the corruption lottery (CRC
//     check).
//   - A corrupted (or dead-link) attempt is Nak'd: the packet stays in
//     the transmitter's replay buffer and retransmits after an
//     ack-timeout with bounded exponential backoff.
//   - The replay buffer holds a bounded number of un-acked packets per
//     egress port; when it fills, the port stalls (DLLP back-pressure)
//     until an Ack frees a slot.
//   - A credit watchdog observes delivery progress. Traffic pending with
//     no delivery for a whole window means the credit loop is stalled
//     (e.g. a dead link pinning credits through its replay loop); the
//     watchdog recovers with a link-level reset that retrains dead links
//     at a degraded width, turning a silent deadlock into a diagnosable,
//     gracefully-degraded run.
//
// Everything runs on the single-threaded DES kernel with seeded random
// streams, so identical configurations give bit-identical results.

// Reset records one watchdog link-level reset.
type Reset struct {
	// At is the simulated time of the reset.
	At des.Time
	// Links is the number of dead-link fault events retired.
	Links int
}

// sendReliable is Send's fault-path body: the same destination credit
// loop, plus replay buffering and the Ack/Nak retransmission protocol.
// Each attempt re-traverses the whole route (the CRC check happens at the
// destination, so a corrupted attempt re-serializes every hop). Fault
// state stays keyed by the end-to-end (src,dst) GPU pair — injected error
// rates and degradations apply to the path as a unit.
//
//finepack:allow hotalloc -- the reliable path runs only under fault injection, off the headline benchmarks; its per-message closures are accepted
func (n *Network) sendReliable(src, dst, wireBytes int, credits core.Credits, done func()) {
	n.inFlight++
	n.armWatchdog()
	start := n.sched.Now()
	n.credits[dst].Acquire(int(credits), func() {
		n.replaySlots[src].Acquire(1, func() {
			n.attempt(src, dst, wireBytes, 0, func() {
				n.replaySlots[src].Release(1)
				n.credits[dst].Release(int(credits))
				n.deliveries++
				n.inFlight--
				if n.obs != nil {
					n.obs.MessageDelivered(src, dst, wireBytes, start, n.sched.Now())
				}
				if done != nil {
					done()
				}
			})
		})
	})
}

// attempt runs one transmission of the packet along its route; acked
// fires when the destination accepts it (CRC pass → Ack). A corrupted or
// dead-link attempt counts a link error and schedules a replay.
//
//finepack:allow hotalloc -- fault-injection path; per-attempt closures are accepted off the headline benchmarks
func (n *Network) attempt(src, dst, wireBytes, try int, acked func()) {
	now := n.sched.Now()
	nak := func() {
		n.Replays++
		n.ReplayedBytes += core.Bytes(wireBytes)
		n.linkErrors[linkName(src, dst)]++
		if n.obs != nil {
			n.obs.ReplayScheduled(src, dst, wireBytes, try, n.sched.Now())
		}
		n.sched.After(n.backoff(try), func() {
			n.attempt(src, dst, wireBytes, try+1, acked)
		})
	}
	if n.fi.IsDown(src, dst, now) {
		// The LTSSM reports the link down: nothing serializes, the
		// replay timer expires without an Ack and the packet stays in
		// the replay buffer.
		nak()
		return
	}
	// Lane down-training stretches serialization on every hop.
	frac := n.fi.BandwidthFraction(src, dst, now)
	route := n.graph.Route(src, dst)
	var step func(hop int)
	step = func(hop int) {
		if hop >= len(route) {
			if n.fi.Corrupted(src, dst, wireBytes, n.sched.Now()) {
				nak()
				return
			}
			acked()
			return
		}
		e := route[hop]
		edge := &n.edges[e]
		bw := edge.Bandwidth
		if bw > 0 {
			bw *= frac
		}
		ser := des.DurationForBytes(uint64(wireBytes), bw)
		hopStart := n.sched.Now()
		arrived := func() {
			n.edgeBytes[e] += core.Bytes(wireBytes)
			n.edgePackets[e]++
			if n.hopObs != nil {
				n.hopObs.HopForwarded(int(e), src, dst, wireBytes, hopStart, n.sched.Now())
			}
			step(hop + 1)
		}
		n.linkSrv[edge.Link].Request(ser, func() {
			if edge.Latency == 0 && hop == len(route)-1 {
				arrived()
				return
			}
			n.sched.After(des.Time(edge.Latency), arrived)
		})
	}
	step(0)
}

// backoff returns the replay delay after the given number of failed
// attempts: the ack timeout doubling per retry, bounded at
// AckTimeout << MaxBackoffShift.
func (n *Network) backoff(try int) des.Time {
	if try > faults.MaxBackoffShift {
		try = faults.MaxBackoffShift
	}
	return n.cfg.Faults.AckTimeout << try
}

// armWatchdog schedules the next progress check if traffic is pending and
// no check is queued. The watchdog goes dormant when the network drains,
// so fault-free idle periods add no events and the run can terminate.
//
//finepack:allow hotalloc -- fault-injection path; the watchdog method value binds at most once per window
func (n *Network) armWatchdog() {
	if n.cfg.Faults.DisableWatchdog || n.watchdogArmed || n.inFlight == 0 {
		return
	}
	n.watchdogArmed = true
	n.lastProgress = n.deliveries
	n.sched.After(n.cfg.Faults.WatchdogWindow, n.watchdogTick)
}

// watchdogTick checks for delivery progress over the last window. A stall
// with traffic pending triggers a link-level reset: dead links retrain at
// the configured degraded fraction and their replay loops then succeed.
func (n *Network) watchdogTick() {
	n.watchdogArmed = false
	if n.inFlight == 0 {
		return
	}
	if n.deliveries == n.lastProgress {
		if retired := n.fi.RetrainDown(n.sched.Now()); retired > 0 {
			n.RecoveredStalls++
			n.resets = append(n.resets, Reset{At: n.sched.Now(), Links: retired})
			if n.obs != nil {
				n.obs.LinkReset(n.sched.Now(), retired)
			}
		}
	}
	n.armWatchdog()
}

// LinkErrors returns a copy of the per-link injected-error counts, nil
// when no error occurred (or fault injection is off).
func (n *Network) LinkErrors() map[string]uint64 {
	if len(n.linkErrors) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(n.linkErrors))
	for k, v := range n.linkErrors {
		out[k] = v
	}
	return out
}

// Resets returns the watchdog reset log.
func (n *Network) Resets() []Reset { return append([]Reset(nil), n.resets...) }

// FaultReport summarizes the run's reliability behavior for diagnosis.
type FaultReport struct {
	Replays         uint64
	ReplayedBytes   core.Bytes
	RecoveredStalls uint64
	LinkErrors      map[string]uint64
	Resets          []Reset
}

// FaultReport assembles the diagnosable report of the run.
func (n *Network) FaultReport() FaultReport {
	return FaultReport{
		Replays:         n.Replays,
		ReplayedBytes:   n.ReplayedBytes,
		RecoveredStalls: n.RecoveredStalls,
		LinkErrors:      n.LinkErrors(),
		Resets:          n.Resets(),
	}
}

func (r FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replays=%d replayed_bytes=%d recovered_stalls=%d",
		r.Replays, r.ReplayedBytes, r.RecoveredStalls)
	if len(r.LinkErrors) > 0 {
		links := make([]string, 0, len(r.LinkErrors))
		for l := range r.LinkErrors {
			links = append(links, l)
		}
		sort.Strings(links)
		b.WriteString(" errors{")
		for i, l := range links {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", l, r.LinkErrors[l])
		}
		b.WriteByte('}')
	}
	for _, rs := range r.Resets {
		fmt.Fprintf(&b, " reset@%v(links=%d)", rs.At, rs.Links)
	}
	return b.String()
}

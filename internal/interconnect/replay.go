package interconnect

import (
	"strconv"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
)

// Reliability protocol: when fault injection is enabled every message
// still rides the hop engine (hop.go) — same hops, same edge windows,
// same end-to-end destination credit loop — and the data-link layer's
// Ack/Nak protocol adds stages to its record.
//
//   - The replay buffer holds a bounded number of un-acked packets per
//     egress port; a message takes a slot once its destination credits
//     are held and keeps it until the Ack. When the buffer fills, the
//     port stalls (DLLP back-pressure) until an Ack frees a slot.
//   - Every transmission attempt re-serializes the packet on every hop of
//     its route; the receiver then draws the corruption lottery (CRC
//     check).
//   - A corrupted (or dead-link) attempt is Nak'd: the packet stays in
//     the transmitter's replay buffer and retransmits after an
//     ack-timeout with bounded exponential backoff.
//   - A credit watchdog observes delivery progress. Traffic pending with
//     no delivery for a whole window means the credit loop is stalled
//     (e.g. a dead link pinning credits through its replay loop); the
//     watchdog recovers with a link-level reset that retrains dead links
//     at a degraded width, turning a silent deadlock into a diagnosable,
//     gracefully-degraded run.
//
// Fault state stays keyed by the end-to-end (src,dst) GPU pair: injected
// error rates and degradations apply to the path as a unit. Everything
// runs on the single-threaded DES kernel with seeded random streams, so
// identical configurations give bit-identical results.

// Reset records one watchdog link-level reset.
type Reset struct {
	// At is the simulated time of the reset.
	At des.Time
	// Links is the number of dead-link fault events retired.
	Links int
}

// nak counts a failed attempt against the (src,dst) link and schedules
// the retransmission after the backoff.
func (x *hopXfer) nak() {
	n := x.n
	n.Replays++
	n.ReplayedBytes += core.Bytes(x.wireBytes)
	n.linkErrors[int(x.src)*n.cfg.NumGPUs+int(x.dst)]++
	if n.obs != nil {
		n.obs.ReplayScheduled(int(x.src), int(x.dst), x.wireBytes, x.try, n.sched.Now())
	}
	x.stage = stageAttempt
	n.sched.After(n.backoff(x.try), x.step)
	x.try++
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
func (n *Network) armWatchdog() {
	if n.cfg.Faults.DisableWatchdog || n.watchdogArmed || n.inFlight == 0 {
		return
	}
	n.watchdogArmed = true
	n.lastProgress = n.deliveries
	n.sched.After(n.cfg.Faults.WatchdogWindow, n.watchdogFn)
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

// LinkErrors returns the per-link injected-error counts keyed "src->dst",
// nil when no error occurred (or fault injection is off).
func (n *Network) LinkErrors() map[string]uint64 {
	var out map[string]uint64
	for i, c := range n.linkErrors {
		if c == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[strconv.Itoa(i/n.cfg.NumGPUs)+"->"+strconv.Itoa(i%n.cfg.NumGPUs)] = c
	}
	return out
}

// Resets returns the watchdog reset log.
func (n *Network) Resets() []Reset { return append([]Reset(nil), n.resets...) }

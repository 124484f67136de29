// Package des implements the discrete-event simulation kernel underneath
// the multi-GPU system model. It provides a simulated clock with picosecond
// resolution, an event queue with deterministic ordering, and a minimal
// process/resource toolkit used by the interconnect and GPU models.
//
// The kernel is intentionally single-threaded: determinism matters more than
// host parallelism for an architectural study, and every run with the same
// inputs must produce bit-identical statistics.
//
// Two event-queue implementations live behind one Scheduler API (see
// DESIGN.md §12): a calendar queue tuned for the simulator's near-future
// event distribution, which every NewScheduler uses, and the original
// binary heap, kept only as the reference oracle the in-package
// equivalence tests drive through newSchedulerWith(true). Both fire events
// in exactly the same (At, seq) total order, a property those tests fuzz
// continuously.
package des

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp in picoseconds. Picoseconds keep byte-level
// events on a >100GB/s link exact: one byte at 128GB/s is ~7.8ps. Time and
// core.PicoSeconds share the time-ps unit class, so converting between
// them is legal; converting either to a byte or credit type is a
// simunits finding.
//
//finepack:unit time-ps
type Time uint64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts the timestamp to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// DurationForBytes returns the time to move n bytes at rate bytes/second.
// It rounds up so that a transfer never finishes early.
func DurationForBytes(n uint64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 || math.IsInf(bytesPerSecond, 0) {
		return 0
	}
	ps := float64(n) / bytesPerSecond * float64(Second)
	// Snap to the nearest integer when the float result is within rounding
	// noise of it, so 32B at exactly 32GB/s is 1000ps and not 1001ps; only
	// genuinely fractional durations round up.
	if r := math.Round(ps); math.Abs(ps-r) < 1e-6 {
		return Time(r)
	}
	return Time(math.Ceil(ps))
}

// Event state markers carried in Event.idx. Non-negative values are heap
// positions (heap implementation only); the calendar queue never tracks
// positions, so its queued events carry idxQueued.
const (
	idxFired     = -1 // popped and fired (or currently firing)
	idxCancelled = -2 // cancelled before firing
	idxStaged    = -3 // popped into the firing cohort, not yet fired
	idxQueued    = -4 // queued in the calendar (bucket or overflow)
)

// Event is a scheduled callback. Events with equal timestamps fire in the
// order they were scheduled (FIFO), which keeps runs deterministic. The
// scheduler owns every Event and recycles it once it has fired or its
// cancellation has been dropped; callers name a scheduled event by the
// Handle that At returns, never by the *Event itself.
type Event struct {
	At  Time
	Fn  func()
	seq uint64
	idx int // heap index, or one of the idx* state markers
}

// Handle names one scheduled event, for Cancel. It pairs the event with
// the seq it was scheduled under: seq is unique per At, so once the
// scheduler recycles the event for a later At the seqs differ and the
// handle goes stale. A stale handle is inert — cancelling it is a no-op
// that cannot reach the event's new occupant. The zero Handle names no
// event.
type Handle struct {
	e   *Event
	seq uint64
}

// event returns the handle's event, or nil when the handle is zero or
// stale.
func (h Handle) event() *Event {
	if h.e == nil || h.e.seq != h.seq {
		return nil
	}
	return h.e
}

// Cancelled reports whether the event was removed before firing. A stale
// handle (its event already recycled for a later At) reports false.
func (h Handle) Cancelled() bool {
	e := h.event()
	return e != nil && e.idx == idxCancelled
}

// before reports whether e precedes o in the (At, seq) total firing order.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// Probe observes scheduler execution for the observability layer. It is
// deliberately minimal — one call per fired event — so the hot loop pays a
// single nil check when no probe is attached. Implementations must not
// schedule events or mutate model state: the probe is a read-only tap.
type Probe interface {
	// EventFired is called after the clock advances to the event's
	// timestamp, immediately before its callback runs.
	EventFired(at Time)
}

// Scheduler owns the simulated clock and event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now    Time
	seq    uint64
	fired  uint64
	inRun  bool
	maxT   Time
	halted bool
	probe  Probe
	pool   eventPool

	// Queue implementation. useHeap selects the reference binary heap
	// (newSchedulerWith(true), used by the equivalence tests); every
	// NewScheduler runs the calendar queue. One predictable branch per
	// queue operation is far cheaper than an interface call on the hot
	// path.
	useHeap bool
	hq      eventHeap
	cq      calendarQueue

	// Firing cohort: popCohort moves every event sharing the minimum
	// timestamp out of the queue in one batch, and the run loop fires
	// them in seq order with per-event halt/budget checks. stagedLive
	// counts staged events not yet fired or cancelled, so Pending stays
	// exact while a cohort is in flight (Halt and RunBudget can leave
	// staged leftovers for the next run to drain first).
	cohort     []*Event
	cohortPos  int
	stagedLive int
}

// eventSlabSize is the bump-allocation block for events. A run's event
// population only grows to its high-water mark of events outstanding at
// once; carving that population from slabs cuts the allocations it takes
// to reach it to one per block.
const eventSlabSize = 256

// eventPool is one scheduler's event freelist. An event returns to it once
// it has fired (before its callback runs, so a callback's own At reuses
// the slot) or once its cancellation is dropped: eagerly for the heap,
// when a calendar tombstone is skipped or rebuilt away. Recycling is what
// makes the steady state allocation-free; Handle's seq check is what
// keeps it safe for callers that still hold a spent event's handle.
type eventPool struct {
	free []*Event
	slab []Event
}

// get returns an unused event: the most recently recycled one, else the
// next slot of the current slab.
func (p *eventPool) get() *Event {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	if len(p.slab) == 0 {
		p.slab = make([]Event, eventSlabSize)
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	return e
}

// put recycles a fired or dropped event, releasing its callback so a spent
// event never pins its captures.
func (p *eventPool) put(e *Event) {
	e.Fn = nil
	p.free = append(p.free, e)
}

// newEvent draws an event from the pool for fn at t.
func (s *Scheduler) newEvent(t Time, fn func()) *Event {
	e := s.pool.get()
	e.At = t
	e.Fn = fn
	e.seq = s.seq
	return e
}

// NewScheduler returns a scheduler at time zero.
func NewScheduler() *Scheduler {
	return newSchedulerWith(false)
}

// newSchedulerWith builds a scheduler on an explicit queue implementation;
// the equivalence oracle drives a heap and a calendar scheduler in
// lockstep.
func newSchedulerWith(useHeap bool) *Scheduler {
	s := &Scheduler{useHeap: useHeap}
	if useHeap {
		s.hq = make(eventHeap, 0, 1024)
	} else {
		s.cq.init(&s.pool)
	}
	return s
}

// SetProbe attaches (or with nil, detaches) an execution probe.
func (s *Scheduler) SetProbe(p Probe) { s.probe = p }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (staged cohort
// leftovers from a halted run included: they have not fired).
func (s *Scheduler) Pending() int {
	if s.useHeap {
		return len(s.hq) + s.stagedLive
	}
	return s.cq.live + s.stagedLive
}

// At schedules fn at absolute time t and returns its handle. Scheduling in
// the past panics: it always indicates a model bug and silently clamping
// would hide it.
//
//finepack:hotpath every simulated action schedules through At
func (s *Scheduler) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	e := s.newEvent(t, fn)
	s.seq++
	if s.useHeap {
		s.hq.push(e)
	} else {
		s.cq.push(e)
	}
	return Handle{e: e, seq: e.seq}
}

// After schedules fn delay picoseconds from now.
func (s *Scheduler) After(delay Time, fn func()) Handle {
	return s.At(s.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled or stale handle is a no-op. The calendar queue cancels
// lazily (the event becomes a tombstone, recycled when it is skipped at
// pop time); either way the callback is released immediately so a
// cancelled event never pins its captures. A staged cohort sibling —
// popped in the same same-timestamp batch but not yet fired — is cancelled
// too: batch popping must not make cancellation able to miss.
func (s *Scheduler) Cancel(h Handle) {
	e := h.event()
	if e == nil {
		return
	}
	switch {
	case e.idx >= 0: // queued in the heap: removed, so recycled now
		s.hq.remove(e.idx)
		e.idx = idxCancelled
		s.pool.put(e)
	case e.idx == idxQueued: // queued in the calendar: tombstone
		e.idx = idxCancelled
		e.Fn = nil
		s.cq.live--
	case e.idx == idxStaged: // popped with the firing cohort, not yet run
		e.idx = idxCancelled
		e.Fn = nil
		s.stagedLive--
	}
	// idxFired / idxCancelled: no-op.
}

// Halt stops the current Run after the in-flight event returns.
func (s *Scheduler) Halt() { s.halted = true }

// Run executes events until the queue is empty.
// It returns the final simulated time.
func (s *Scheduler) Run() Time {
	t, _ := s.run(Time(math.MaxUint64), 0)
	return t
}

// RunUntil executes events with timestamps ≤ deadline, advancing the clock
// to each event's timestamp. It returns the simulated time after the last
// executed event (or deadline if the queue drained earlier than that but
// events remain in the future — the clock never moves past work not done).
func (s *Scheduler) RunUntil(deadline Time) Time {
	t, _ := s.run(deadline, 0)
	return t
}

// RunBudget executes events until the queue is empty, but fails once more
// than maxEvents events have fired with work still pending. A model bug
// that schedules events forever (a retry loop, a self-perpetuating timer)
// then surfaces as a clear error instead of an infinite loop. maxEvents
// zero means unlimited (identical to Run).
func (s *Scheduler) RunBudget(maxEvents uint64) (Time, error) {
	return s.run(Time(math.MaxUint64), maxEvents)
}

// peek returns the earliest live queued event without popping, or nil.
func (s *Scheduler) peek() *Event {
	if s.useHeap {
		return s.hq.peek()
	}
	return s.cq.peek()
}

// popCohort moves every queued event sharing the minimum timestamp into
// s.cohort in seq order and marks them staged. The heap pays one sift per
// event (it is the reference implementation); the calendar slices the
// cohort off the head of one bucket.
func (s *Scheduler) popCohort() {
	s.cohort = s.cohort[:0]
	s.cohortPos = 0
	if s.useHeap {
		s.cohort = s.hq.popCohort(s.cohort)
	} else {
		s.cohort = s.cq.popCohort(s.cohort)
	}
	s.stagedLive += len(s.cohort)
}

// run is the shared engine behind Run/RunUntil/RunBudget: pop a cohort of
// same-timestamp events in one batch, then fire them one at a time with
// per-event deadline, budget, and halt checks, exactly as the original
// pop-one-fire-one heap loop behaved.
//
//finepack:hotpath the DES event loop fires every simulated event
func (s *Scheduler) run(deadline Time, budget uint64) (Time, error) {
	if s.inRun {
		panic("des: re-entrant Run")
	}
	s.inRun = true
	s.halted = false
	defer func() { s.inRun = false }() //finepack:allow hotalloc -- one closure per Run invocation, not per event
	start := s.fired
	var err error
	for !s.halted {
		// Next staged event: usually the cohort popped below; after a
		// Halt or budget stop, the leftovers of an interrupted cohort,
		// drained before the queue is consulted again.
		var next *Event
		for s.cohortPos < len(s.cohort) {
			e := s.cohort[s.cohortPos]
			if e.idx != idxStaged { // cancelled while staged
				s.cohortPos++
				s.pool.put(e)
				continue
			}
			next = e
			break
		}
		if next == nil {
			head := s.peek()
			if head == nil || head.At > deadline {
				break
			}
			s.popCohort()
			continue
		}
		if next.At > deadline {
			// Leftover cohort from an earlier halted run, past this
			// call's horizon: leave it staged.
			break
		}
		if budget > 0 && s.fired-start >= budget {
			err = fmt.Errorf("des: event budget of %d exceeded at %v (pending=%d)", //finepack:allow hotalloc -- budget exhaustion ends the run; formatting here is terminal
				budget, s.now, s.Pending())
			break
		}
		s.cohortPos++
		s.stagedLive--
		next.idx = idxFired
		s.now = next.At
		s.fired++
		if s.probe != nil {
			s.probe.EventFired(next.At)
		}
		fn := next.Fn
		// Recycle the event before running its callback: put drops the
		// callback, and a callback that schedules its successor (the
		// common case) reuses this very slot.
		s.pool.put(next)
		fn()
	}
	if s.now > s.maxT {
		s.maxT = s.now
	}
	return s.now, err
}

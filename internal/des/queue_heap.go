package des

import "container/heap"

// eventHeap is the original binary-heap event queue, retained as the
// reference implementation: dead simple, position-tracked (Cancel removes
// eagerly), and the oracle the calendar queue is fuzzed against. Only the
// equivalence tests build a scheduler on it.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	return h[i].before(h[j])
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = idxFired
	*h = old[:n-1]
	return e
}

// push enqueues an event.
//
//finepack:hotpath heap enqueue, once per scheduled event (reference queue)
func (h *eventHeap) push(e *Event) { heap.Push(h, e) }

// peek returns the minimum event without popping, or nil when empty.
func (h eventHeap) peek() *Event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// remove deletes the event at heap position i (eager cancellation).
func (h *eventHeap) remove(i int) { heap.Remove(h, i) }

// popCohort appends every event sharing the minimum timestamp to dst in
// seq order, marking each staged, and returns the extended slice.
//
//finepack:hotpath heap dequeue, once per fired cohort (reference queue)
func (h *eventHeap) popCohort(dst []*Event) []*Event {
	if len(*h) == 0 {
		return dst
	}
	at := (*h)[0].At
	for len(*h) > 0 && (*h)[0].At == at {
		e := heap.Pop(h).(*Event)
		e.idx = idxStaged
		dst = append(dst, e)
	}
	return dst
}

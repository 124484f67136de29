package sim

import (
	"slices"

	"finepack/internal/baseline"
	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/interconnect"
	"finepack/internal/obs"
)

// egress is a per-GPU transport engine for the store-based paradigms: it
// accepts coalesced L1 store transactions during kernel execution and, at
// a system-scoped release, guarantees everything is visible at the
// destinations before signalling done.
type egress interface {
	store(s core.Store) error
	// atomic handles a remote atomic operation: never coalesced by the
	// L1, and only FinePack gives it special treatment (line flush +
	// uncoalesced egress, or queue admission under CoalesceAtomics).
	atomic(s core.Store) error
	flush(done func())
	// accumulate folds the engine's traffic counters into the result.
	accumulate(r *Result)
	// pendingStores returns the instantaneous buffered-store depth for
	// the observability sampler. Engines without a coalescing buffer
	// (or whose buffer tracks pages, not stores) report their natural
	// occupancy figure; pass-through engines report zero.
	pendingStores() int
}

// sender tracks in-flight packets from one GPU and implements the
// drain-at-release handshake shared by every engine. Delivered packets
// pass through the destination's de-packetizer ingress buffer (when
// configured) before counting as visible.
type sender struct {
	sched       *des.Scheduler
	net         *interconnect.Network
	src         int
	outstanding int
	pendingDone func()
	// obs, when non-nil, records each emitted packet (flush instant with
	// its trigger cause) for the observability layer.
	obs *obs.Recorder
	// ingest consumes a delivered packet at the destination and calls
	// its completion callback once the disaggregated stores have drained
	// into the local memory system; it also returns the packet to the
	// run's pool. Nil skips ingress modeling.
	ingest func(*core.Packet, func())
	// pool is the run's packet pool, shared by every GPU's engines.
	pool *core.PacketPool
	// completeFn caches the complete method value so the per-packet
	// delivery path never re-binds it; free recycles delivery callbacks
	// (see sendOp).
	completeFn func()
	free       []*sendOp
}

// sendOp is one in-flight packet's delivery callback, pre-bound once and
// recycled: send/transmit are per-packet hot paths and a fresh closure per
// message dominated allocation profiles. Exactly one of p / arrived is set.
type sendOp struct {
	s       *sender
	p       *core.Packet
	arrived func()
	fire    func()
}

//finepack:allow hotalloc -- the fire closure and complete binding happen once per pooled send op on the freelist miss path
func (s *sender) getOp() *sendOp {
	if len(s.free) > 0 {
		op := s.free[len(s.free)-1]
		s.free[len(s.free)-1] = nil
		s.free = s.free[:len(s.free)-1]
		return op
	}
	if s.completeFn == nil {
		s.completeFn = s.complete
	}
	op := &sendOp{s: s}
	op.fire = func() {
		snd := op.s
		p, arrived := op.p, op.arrived
		op.p, op.arrived = nil, nil
		snd.free = append(snd.free, op)
		if p != nil {
			if snd.ingest != nil {
				snd.ingest(p, snd.completeFn)
				return
			}
			snd.complete()
			return
		}
		if arrived != nil {
			arrived()
		}
		snd.complete()
	}
	return op
}

//finepack:hotpath egress: every emitted packet passes through here
func (s *sender) send(p *core.Packet) {
	if s.obs != nil {
		s.obs.PacketEmitted(s.src, p.Dst, p.Cause.String(),
			p.StoresMerged, len(p.Subs), p.WireBytes, s.sched.Now())
	}
	s.outstanding++
	op := s.getOp()
	op.p = p
	s.net.Send(s.src, p.Dst, p.WireBytes, op.fire)
}

// transmit moves raw wire bytes toward dst under the outstanding/drain
// bookkeeping, bypassing packet ingestion; arrived (may be nil) fires on
// delivery.
//
//finepack:hotpath egress for the non-packetized paradigms
func (s *sender) transmit(dst, wireBytes int, arrived func()) {
	s.outstanding++
	op := s.getOp()
	op.arrived = arrived
	s.net.Send(s.src, dst, wireBytes, op.fire)
}

// complete retires one in-flight unit and fires a pending drain.
func (s *sender) complete() {
	s.outstanding--
	if s.outstanding == 0 && s.pendingDone != nil {
		done := s.pendingDone
		s.pendingDone = nil
		done()
	}
}

func (s *sender) drain(done func()) {
	if s.outstanding == 0 {
		s.sched.After(0, done)
		return
	}
	if s.pendingDone != nil {
		panic("sim: overlapping drains on one egress")
	}
	s.pendingDone = done
}

// p2pEgress sends every store as its own plain PCIe write TLP: today's
// peer-to-peer store path (Fig 1, no coalescing beyond L1).
type p2pEgress struct {
	cfg      core.Config
	s        *sender
	bytesOut core.Bytes
}

func (e *p2pEgress) store(st core.Store) error {
	pkt, err := e.s.pool.NewStorePacket(e.cfg, st)
	if err != nil {
		return err
	}
	e.bytesOut += core.Bytes(st.Size)
	e.s.send(pkt)
	return nil
}

func (e *p2pEgress) atomic(st core.Store) error { return e.store(st) }

func (e *p2pEgress) flush(done func()) { e.s.drain(done) }

func (e *p2pEgress) accumulate(r *Result) { r.DataBytes += e.bytesOut }

func (e *p2pEgress) pendingStores() int { return 0 }

// fpEgress routes stores through the FinePack remote write queue. An
// optional inactivity timeout flushes the queue when no store has arrived
// for the configured window (§IV-B's latency mitigation: "the queue can be
// flushed after an inactivity timeout. However, we chose not to implement
// such timeouts to maximize the coalescing window" — off by default,
// evaluated by the timeout ablation).
type fpEgress struct {
	q       *core.Queue
	s       *sender
	timeout des.Time
	timer   des.Handle
	onIdle  func() // timeout-flush callback, bound once (re-armed per store)
}

func newFPEgress(cfg core.Config, timeout des.Time, s *sender) (*fpEgress, error) {
	q, err := core.NewQueue(cfg, s.send)
	if err != nil {
		return nil, err
	}
	q.UsePacketPool(s.pool)
	e := &fpEgress{q: q, s: s, timeout: timeout}
	e.onIdle = func() {
		e.timer = des.Handle{} // fired: the scheduler recycles the event
		e.q.FlushAll(core.CauseTimeout)
	}
	return e, nil
}

func (e *fpEgress) store(st core.Store) error {
	if err := e.q.Write(st); err != nil {
		return err
	}
	if e.timeout > 0 {
		e.s.sched.Cancel(e.timer)
		e.timer = e.s.sched.After(e.timeout, e.onIdle)
	}
	return nil
}

func (e *fpEgress) atomic(st core.Store) error { return e.q.Atomic(st) }

func (e *fpEgress) flush(done func()) {
	e.s.sched.Cancel(e.timer)
	e.q.FlushAll(core.CauseRelease)
	e.s.drain(done)
}

func (e *fpEgress) accumulate(r *Result) {
	st := e.q.Stats()
	r.DataBytes += st.DataBytes
	r.SubheaderBytes += st.SubheaderBytes
	for c := 0; c < core.NumFlushCauses; c++ {
		r.Flushes[c] += st.Flushes[c]
	}
	// AvgStoresPerPacket is recomputed across GPUs by the caller using
	// these two sums.
	r.fpPacketSum += st.Packets
	r.fpStoresPackedSum += st.StoresPerPacketSum
}

func (e *fpEgress) pendingStores() int { return e.q.PendingStoresTotal() }

// wcEgress is the write-combining-alone ablation.
type wcEgress struct {
	cfg core.Config
	wc  *baseline.WriteCombiner
	s   *sender
}

func newWCEgress(cfg core.Config, s *sender) (*wcEgress, error) {
	wc, err := baseline.NewWriteCombiner(cfg, s.send)
	if err != nil {
		return nil, err
	}
	return &wcEgress{cfg: cfg, wc: wc, s: s}, nil
}

func (e *wcEgress) store(st core.Store) error { return e.wc.Write(st) }

// atomic bypasses the combining buffer: write combining does not merge
// atomics either; they egress as individual plain writes.
func (e *wcEgress) atomic(st core.Store) error {
	pkt, err := e.s.pool.NewStorePacket(e.cfg, st)
	if err != nil {
		return err
	}
	e.s.send(pkt)
	return nil
}

func (e *wcEgress) flush(done func()) {
	e.wc.FlushAll()
	e.s.drain(done)
}

func (e *wcEgress) accumulate(r *Result) { r.DataBytes += core.Bytes(e.wc.Stats().DataBytes) }

func (e *wcEgress) pendingStores() int { return 0 }

// umEgress models Unified-Memory page migration: stores record which pages
// of the home copy were produced for each consumer; at the synchronization
// point the consumer faults every touched page across the link, paying a
// per-page fault latency serially plus the whole page's transfer — no
// overlap with compute and massive granularity inflation for sparse
// updates (§II-A).
type umEgress struct {
	cfg       core.Config
	pageBytes int
	faultLat  des.Time
	s         *sender
	pages     map[int]map[uint64]struct{} // dst → page set
	pageOrder map[int][]uint64
	// PagesMigrated counts page transfers.
	PagesMigrated uint64
}

func newUMEgress(cfg core.Config, pageBytes int, faultLat des.Time, s *sender) *umEgress {
	if pageBytes <= 0 {
		pageBytes = 64 << 10
	}
	return &umEgress{
		cfg:       cfg,
		pageBytes: pageBytes,
		faultLat:  faultLat,
		s:         s,
		pages:     make(map[int]map[uint64]struct{}),
		pageOrder: make(map[int][]uint64),
	}
}

func (e *umEgress) store(st core.Store) error {
	if err := st.Validate(); err != nil {
		return err
	}
	first := st.Addr / uint64(e.pageBytes)
	last := (st.End() - 1) / uint64(e.pageBytes)
	for page := first; page <= last; page++ {
		set, ok := e.pages[st.Dst]
		if !ok {
			set = make(map[uint64]struct{})
			e.pages[st.Dst] = set
		}
		if _, seen := set[page]; !seen {
			set[page] = struct{}{}
			e.pageOrder[st.Dst] = append(e.pageOrder[st.Dst], page)
		}
	}
	return nil
}

func (e *umEgress) atomic(st core.Store) error { return e.store(st) }

func (e *umEgress) flush(done func()) {
	// Consumers fault the dirty pages serially: one fault latency each,
	// transfers pipelining behind.
	cursor := e.s.sched.Now()
	dsts := make([]int, 0, len(e.pageOrder))
	for d := range e.pageOrder {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	for _, dst := range dsts {
		for _, page := range e.pageOrder[dst] {
			_ = page
			dst := dst
			cursor += e.faultLat
			_, wire := e.cfg.TLP.TLPsForTransfer(e.pageBytes, e.cfg.MaxPayload)
			e.PagesMigrated++
			e.s.sched.At(cursor, func() {
				e.s.transmit(dst, int(wire), nil)
			})
		}
		e.pages[dst] = make(map[uint64]struct{})
		e.pageOrder[dst] = nil
	}
	// Drain completes only after the last scheduled migration lands; the
	// sender's outstanding counter covers the in-flight ones, but none
	// may have been scheduled yet — wait past the last issue time.
	e.s.sched.At(cursor, func() { e.s.drain(done) })
}

func (e *umEgress) accumulate(r *Result) {
	r.DataBytes += core.Bytes(e.PagesMigrated * uint64(e.pageBytes))
	r.UMPagesMigrated += e.PagesMigrated
}

// pendingStores reports dirty pages awaiting migration — UM's occupancy
// figure (it buffers page sets, not stores). Int accumulation over the map
// is order-independent.
func (e *umEgress) pendingStores() int {
	n := 0
	for _, pages := range e.pageOrder {
		n += len(pages)
	}
	return n
}

// gpsEgress is the GPS-like comparator: write combining plus subscription
// elision.
type gpsEgress struct {
	cfg core.Config
	g   *baseline.GPS
	s   *sender
}

func newGPSEgress(cfg core.Config, consumedFraction float64, s *sender) (*gpsEgress, error) {
	g, err := baseline.NewGPS(cfg, consumedFraction, s.send)
	if err != nil {
		return nil, err
	}
	return &gpsEgress{cfg: cfg, g: g, s: s}, nil
}

func (e *gpsEgress) store(st core.Store) error { return e.g.Write(st) }

// atomic bypasses combining and subscription: atomics must reach the
// destination.
func (e *gpsEgress) atomic(st core.Store) error {
	pkt, err := e.s.pool.NewStorePacket(e.cfg, st)
	if err != nil {
		return err
	}
	e.s.send(pkt)
	return nil
}

func (e *gpsEgress) flush(done func()) {
	e.g.FlushAll()
	e.s.drain(done)
}

func (e *gpsEgress) accumulate(r *Result) {
	sentPackets := e.g.Stats().Packets - e.g.ElidedPackets
	r.DataBytes += core.Bytes(sentPackets * core.CacheLineBytes)
}

func (e *gpsEgress) pendingStores() int { return 0 }

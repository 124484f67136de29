package sim

import (
	"fmt"
	"io"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
	"finepack/internal/interconnect"
	"finepack/internal/memsystem"
	"finepack/internal/obs"
	"finepack/internal/topo"
	"finepack/internal/trace"
)

// defaultEventBudget bounds one run's event count when Config.EventBudget
// is unset: far above any legitimate run in this suite (the largest
// full-scale traces fire tens of millions of events), low enough that a
// runaway retry loop errors out in seconds rather than hanging forever.
const defaultEventBudget = 500_000_000

// SingleGPUTime returns the analytic single-GPU execution time for the
// traced problem: all compute, no inter-GPU traffic, no barriers — the
// Fig 9 baseline.
func SingleGPUTime(tr *trace.Trace, cfg Config) des.Time {
	per := cfg.Compute.Duration(tr.SingleGPUOpsPerIter)
	return per * des.Time(len(tr.Iterations))
}

// singleGPUTimeMeta is SingleGPUTime for a streaming source's metadata.
func singleGPUTimeMeta(m trace.Meta, cfg Config) des.Time {
	per := cfg.Compute.Duration(m.SingleGPUOpsPerIter)
	return per * des.Time(m.Iterations)
}

// Run replays a trace under one paradigm and returns the measured result.
func Run(tr *trace.Trace, par Paradigm, cfg Config) (*Result, error) {
	return run(tr, par, cfg, nil)
}

// RunSource replays a streaming trace source under one paradigm. It is
// Run for traces that never materialize: the runner holds one iteration
// window at a time, so a synthesized or file-backed source replays in
// O(window) memory regardless of trace length. A slice-backed source
// produces a Result identical to Run on the underlying trace.
//
// Unlike Run, the trace is not validated up front (that would require a
// full pass): sources are responsible for yielding valid iterations, and
// a window that fails the source's own validation surfaces as a run
// error at the iteration boundary.
func RunSource(src trace.IterationSource, par Paradigm, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSource(src, par, cfg, nil)
}

// run is the shared body of Run and RunObserved (observe.go); rec nil
// means observability off.
func run(tr *trace.Trace, par Paradigm, cfg Config, rec *obs.Recorder) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return runSource(trace.NewSliceSource(tr), par, cfg, rec)
}

// runSource is the streaming run core shared by every entry point. cfg
// must already be validated; the source's iterations must be valid.
func runSource(src trace.IterationSource, par Paradigm, cfg Config, rec *obs.Recorder) (*Result, error) {
	meta := src.Meta()
	if meta.NumGPUs < 2 {
		return nil, fmt.Errorf("sim: trace has %d GPUs; multi-GPU run needs ≥2", meta.NumGPUs)
	}
	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("sim: %s/%s: reset source: %w", meta.Name, par, err)
	}

	sched := des.NewScheduler()
	bw := cfg.linkBandwidth()
	netCfg := interconnect.DefaultConfig(meta.NumGPUs, bw)
	netCfg.Faults = cfg.Faults
	if par == Infinite {
		// The opportunity bound elides all transfer costs.
		netCfg.Bandwidth = 0
		netCfg.HopLatency = 0
	}
	var graph *topo.Graph
	if cfg.Topology != nil && par != Infinite {
		g, err := topo.Build(cfg.Topology)
		if err != nil {
			return nil, err
		}
		if g.NumGPUs() != meta.NumGPUs {
			return nil, fmt.Errorf("sim: topology %q has %d GPUs, trace %q has %d",
				cfg.Topology.Name, g.NumGPUs(), meta.Name, meta.NumGPUs)
		}
		graph = g
		netCfg.Topology = g
	}
	net, err := interconnect.New(sched, netCfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Workload:      meta.Name,
		Paradigm:      par,
		NumGPUs:       meta.NumGPUs,
		SingleGPUTime: singleGPUTimeMeta(meta, cfg),
	}

	if graph != nil {
		res.Topology = graph.Name()
	}

	r := &runner{
		sched: sched,
		net:   net,
		cfg:   cfg,
		par:   par,
		src:   src,
		meta:  meta,
		res:   res,
		graph: graph,
	}
	if cfg.CheckData && (par == P2P || par == FinePack) {
		r.refMem = make(map[int]*memsystem.Memory)
		r.actMem = make(map[int]*memsystem.Memory)
		for g := 0; g < meta.NumGPUs; g++ {
			r.refMem[g] = memsystem.NewMemory()
			r.actMem[g] = memsystem.NewMemory()
		}
	}
	r.attachObservability(rec)
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.startSampler()
	r.startIteration(0)
	budget := cfg.EventBudget
	if budget == 0 {
		budget = defaultEventBudget
	}
	if _, err := sched.RunBudget(budget); err != nil {
		return nil, fmt.Errorf("sim: %s/%s: %w", meta.Name, par, err)
	}
	if r.checkErr != nil {
		return nil, r.checkErr
	}
	if !r.finished {
		return nil, fmt.Errorf("sim: %s/%s deadlocked at %v (pending=%d)",
			meta.Name, par, sched.Now(), sched.Pending())
	}

	res.Time = r.endTime
	res.WireBytes = net.BytesSent
	res.Packets = net.PacketsSent
	res.Replays = net.Replays
	res.ReplayedWireBytes = net.ReplayedBytes
	res.RecoveredStalls = net.RecoveredStalls
	res.LinkErrors = net.LinkErrors()
	if graph != nil {
		// Split wire bytes by endpoint-pair placement; per-hop fabric
		// amplification comes from the edge counters.
		for s := 0; s < meta.NumGPUs; s++ {
			for d := 0; d < meta.NumGPUs; d++ {
				if s == d {
					continue
				}
				if graph.SameNode(s, d) {
					res.IntraNodeWireBytes += net.LinkBytes(s, d)
				} else {
					res.InterNodeWireBytes += net.LinkBytes(s, d)
				}
			}
		}
		res.InterNodeHopBytes = net.InterNodeEdgeBytes()
	}
	if !r.storeParadigm() {
		// Bulk copies travel as one network message but occupy multiple
		// max-payload TLPs on the wire.
		res.Packets = r.dmaTLPs
	}
	for _, e := range r.engines {
		e.accumulate(res)
	}
	if res.fpPacketSum > 0 {
		res.AvgStoresPerPacket = float64(res.fpStoresPackedSum) / float64(res.fpPacketSum)
	}
	return res, nil
}

// runner holds the per-run mutable state.
type runner struct {
	sched *des.Scheduler
	net   *interconnect.Network
	cfg   Config
	par   Paradigm
	// src yields iteration windows; meta is its invariant metadata. cur
	// is the window being replayed — everything it references is only
	// valid until the next src.Next(), which startIteration only calls
	// once the previous window's traffic has fully drained.
	src     trace.IterationSource
	meta    trace.Meta
	cur     *trace.Iteration
	res     *Result
	engines []egress // store paradigms; nil entries for DMA/Infinite
	// graph is the multi-hop topology (nil on the flat fabric), used to
	// classify endpoint pairs for the intra/inter-node result splits.
	graph *topo.Graph

	// coal reuses coalescing scratch across every warp store in the run:
	// the store-paradigm hot loop would otherwise allocate two slices per
	// warp, which dominates streamed replays.
	coal gpusim.Coalescer

	// useful-byte tracking: unique bytes per (src,dst) per iteration,
	// indexed src*NumGPUs+dst. A pre-sized flat slice: track() runs once
	// per coalesced store, and map lookups there dominated profiles.
	trackers []*memsystem.ByteTracker

	// CheckData state.
	refMem   map[int]*memsystem.Memory
	actMem   map[int]*memsystem.Memory
	checkErr error

	// Destination de-packetizer buffers (store paradigms, non-UM) and the
	// recycled per-packet ingest pipelines feeding them. packets is the
	// run's packet pool: engines draw from it, and ingest returns each
	// packet once its last store has drained.
	ingress []*memsystem.IngressBuffer
	ifree   []*ingestOp
	packets core.PacketPool

	finished bool
	endTime  des.Time
	dmaTLPs  uint64
	// RemoteRead per-iteration read-set cache: valid for readIter only
	// (iterations stream through in order, so one window's worth is all
	// that is ever needed).
	readIter  int
	readCache [][]int

	// Observability (nil when disabled). obsRec is the concrete recorder;
	// warpObs is the same recorder as a gpusim observer, assigned only
	// when non-nil so the disabled path passes a nil interface.
	obsRec  *obs.Recorder
	warpObs gpusim.StoreObserver
}

func (r *runner) storeParadigm() bool {
	switch r.par {
	case P2P, FinePack, WriteCombining, GPS, UM:
		return true
	}
	return false
}

func (r *runner) setup() error {
	if !r.storeParadigm() {
		return nil
	}
	r.trackers = make([]*memsystem.ByteTracker, r.meta.NumGPUs*r.meta.NumGPUs)
	r.engines = make([]egress, r.meta.NumGPUs)

	// Destination-side de-packetizer ingress buffers, shared by all
	// senders targeting a GPU. UM transfers whole pages outside the
	// packet path and skips them.
	var ingress []*memsystem.IngressBuffer
	if r.par != UM {
		ingress = make([]*memsystem.IngressBuffer, r.meta.NumGPUs)
		for g := 0; g < r.meta.NumGPUs; g++ {
			ingress[g] = memsystem.NewIngressBuffer(
				r.sched, r.cfg.IngressEntries, r.cfg.LocalMemBandwidth)
		}
	}
	r.ingress = ingress
	for g := 0; g < r.meta.NumGPUs; g++ {
		s := &sender{sched: r.sched, net: r.net, src: g, obs: r.obsRec, pool: &r.packets}
		if ingress != nil {
			s.ingest = r.ingest
		}
		var (
			e   egress
			err error
		)
		switch r.par {
		case P2P:
			e = &p2pEgress{cfg: r.cfg.FinePack, s: s}
		case FinePack:
			e, err = newFPEgress(r.cfg.FinePack, des.Time(r.cfg.FlushTimeout), s)
		case WriteCombining:
			e, err = newWCEgress(r.cfg.FinePack, s)
		case GPS:
			e, err = newGPSEgress(r.cfg.FinePack, r.cfg.GPSConsumedFraction, s)
		case UM:
			e = newUMEgress(r.cfg.FinePack, r.cfg.UMPageBytes, r.cfg.UMFaultLatency, s)
		}
		if err != nil {
			return err
		}
		r.engines[g] = e
	}
	return nil
}

// ingestOp tracks one delivered packet's stores through the destination's
// de-packetizer buffer. The stores slice and the single drain callback are
// reused across packets: the old path allocated a store slice plus one
// closure per disaggregated store, which dominated end-to-end allocation
// profiles. Completion is positional — the ingress buffer's slot pool and
// drain server are both strictly FIFO, so one packet's stores drain in
// acceptance order even when packets interleave on the buffer. The stores
// alias the packet's payload, so the packet returns to the run's pool only
// after the last of them has drained (IngressBuffer.Accept and
// Memory.Write keep no store data).
type ingestOp struct {
	r         *runner
	p         *core.Packet
	stores    []core.Store
	pos       int
	remaining int
	done      func()
	storeDone func()
}

//finepack:allow hotalloc -- the stage closures bind once per pooled ingest op on the freelist miss path
func (r *runner) getIngestOp() *ingestOp {
	if len(r.ifree) > 0 {
		op := r.ifree[len(r.ifree)-1]
		r.ifree[len(r.ifree)-1] = nil
		r.ifree = r.ifree[:len(r.ifree)-1]
		return op
	}
	op := &ingestOp{r: r}
	op.storeDone = func() {
		rr := op.r
		if rr.actMem != nil {
			st := op.stores[op.pos]
			rr.actMem[st.Dst].Write(st)
		}
		op.pos++
		op.remaining--
		if op.remaining == 0 {
			done := op.done
			op.done = nil
			clear(op.stores) // the stores alias the packet's payload
			op.stores = op.stores[:0]
			op.pos = 0
			rr.packets.Put(op.p)
			op.p = nil
			rr.ifree = append(rr.ifree, op)
			done()
		}
	}
	return op
}

// ingest consumes a delivered packet at its destination: each disaggregated
// store occupies the de-packetizer buffer until drained, and done fires
// after the last store lands (writing actMem when data checking is on).
//
//finepack:hotpath ingress: every delivered packet passes through here
func (r *runner) ingest(p *core.Packet, done func()) {
	op := r.getIngestOp()
	op.stores = core.DepacketizeAppend(op.stores[:0], p)
	if len(op.stores) == 0 {
		r.packets.Put(p)
		r.ifree = append(r.ifree, op)
		r.sched.After(0, done)
		return
	}
	op.p = p
	op.pos = 0
	op.remaining = len(op.stores)
	op.done = done
	buf := r.ingress[p.Dst]
	for _, st := range op.stores {
		buf.Accept(st, op.storeDone)
	}
}

// addUseful credits useful bytes to the run total and, under a topology,
// to the endpoint pair's placement class.
func (r *runner) addUseful(src, dst int, b core.Bytes) {
	r.res.UsefulBytes += b
	if r.graph == nil {
		return
	}
	if r.graph.SameNode(src, dst) {
		r.res.IntraNodeUsefulBytes += b
	} else {
		r.res.InterNodeUsefulBytes += b
	}
}

// startIteration launches iteration i at the current simulated time; when
// every GPU reaches the closing barrier with its traffic delivered, the
// next iteration starts after BarrierLatency.
func (r *runner) startIteration(i int) {
	// Fold the finished epoch's unique bytes into the useful-byte total
	// (barriers delimit epochs: a byte rewritten in a later iteration is
	// separately useful there).
	for k, t := range r.trackers {
		if t != nil {
			r.addUseful(k/r.meta.NumGPUs, k%r.meta.NumGPUs, t.Unique())
			t.Reset()
		}
	}
	if i >= r.meta.Iterations {
		r.finished = true
		r.endTime = r.sched.Now()
		return
	}
	// Pull the next window. Safe to do only now: every event referencing
	// the previous window (store batches at ≤ t0+tc, the flush, the copy
	// and drain completions) has fired before this barrier-crossing runs,
	// so the source is free to reuse its decode buffers.
	it, err := r.src.Next()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("source ended early after %d of %d iterations", i, r.meta.Iterations)
		}
		r.fail(fmt.Errorf("sim: %s/%s: iteration %d: %w", r.meta.Name, r.par, i, err))
		return
	}
	r.cur = it
	t0 := r.sched.Now()

	// Critical-path compute accounting for the overlap metrics.
	var maxTc des.Time
	for _, w := range it.PerGPU {
		if tc := r.cfg.Compute.Duration(w.ComputeOps); tc > maxTc {
			maxTc = tc
		}
	}
	r.res.ComputeTime += maxTc
	r.res.BarrierTime += r.cfg.BarrierLatency

	if r.storeParadigm() {
		// Store paradigms: the queue-drain tail overlaps the barrier
		// itself (§VI-B: the flush cost "will be dwarfed by the cost of
		// the synchronization barrier"). The next iteration starts at
		// max(last kernel end + barrier, last byte delivered).
		kernels, drains := r.meta.NumGPUs, r.meta.NumGPUs
		var barrierAt, drainsAt des.Time
		maybeNext := func() {
			if kernels != 0 || drains != 0 {
				return
			}
			if r.actMem != nil {
				r.checkMemories(i)
				if r.checkErr != nil {
					return
				}
			}
			at := barrierAt
			if drainsAt > at {
				at = drainsAt
			}
			r.sched.At(at, func() { r.startIteration(i + 1) })
		}
		for g := 0; g < r.meta.NumGPUs; g++ {
			w := it.PerGPU[g]
			tc := r.cfg.Compute.Duration(w.ComputeOps)
			if r.obsRec != nil {
				r.obsRec.ComputePhase(g, i, t0, t0+tc)
			}
			r.scheduleStores(g, w, t0, tc,
				func() { // kernel end (flush initiated)
					if t := r.sched.Now() + r.cfg.BarrierLatency; t > barrierAt {
						barrierAt = t
					}
					kernels--
					maybeNext()
				},
				func() { // all traffic delivered
					if t := r.sched.Now(); t > drainsAt {
						drainsAt = t
					}
					drains--
					maybeNext()
				})
		}
		return
	}

	// memcpy/on-demand paradigms: transfers are serial with compute; the
	// barrier closes after the last delivery.
	remaining := r.meta.NumGPUs
	gpuDone := func() {
		remaining--
		if remaining == 0 {
			r.sched.After(r.cfg.BarrierLatency, func() { r.startIteration(i + 1) })
		}
	}
	for g := 0; g < r.meta.NumGPUs; g++ {
		if r.obsRec != nil {
			tc := r.cfg.Compute.Duration(it.PerGPU[g].ComputeOps)
			r.obsRec.ComputePhase(g, i, t0, t0+tc)
		}
		if r.par == RemoteRead {
			r.scheduleReads(g, i, t0, gpuDone)
			continue
		}
		r.scheduleCopies(g, it.PerGPU[g], t0, gpuDone)
	}
}

// fail records the first fatal error and halts the schedule; the run
// entry point surfaces it after the event loop stops.
func (r *runner) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
	r.sched.Halt()
}

// scheduleReads schedules one GPU's kernel under the RemoteRead paradigm:
// the consumer's loads of remotely-produced lines interleave with compute,
// stalling it by the latency the available memory-level parallelism cannot
// hide, while the reply data occupies the producer→consumer links.
func (r *runner) scheduleReads(g, iter int, t0 des.Time, done func()) {
	tc := r.cfg.Compute.Duration(r.cur.PerGPU[g].ComputeOps)

	lines := r.readLines(iter, g)
	var totalLines int
	for _, n := range lines {
		totalLines += n
	}
	// Latency exposure: each batch of ReadMLP outstanding reads pays one
	// round trip.
	mlp := r.cfg.ReadMLP
	if mlp <= 0 {
		mlp = 1
	}
	stall := des.Time(uint64(r.cfg.ReadRTT) * uint64((totalLines+mlp-1)/mlp))

	// Reply data (one completion TLP per line) flows producer→consumer,
	// contending on the fabric like any other traffic.
	outstanding := 0
	issued := false
	maybeDone := func() {
		if issued && outstanding == 0 {
			done()
		}
	}
	request, completion := r.cfg.FinePack.TLP.ReadWireBytes(128)
	lineWire := request + completion
	for src, n := range lines {
		if n == 0 || src == g {
			continue
		}
		src := src
		bytes := n * lineWire
		r.res.DataBytes += core.Bytes(n) * 128
		outstanding++
		r.sched.At(t0, func() {
			r.net.Send(src, g, bytes, func() {
				outstanding--
				maybeDone()
			})
		})
	}
	// The kernel retires once compute plus the exposed read stalls have
	// elapsed; the barrier additionally waits for reply traffic.
	outstanding++
	r.sched.At(t0+tc+stall, func() {
		outstanding--
		maybeDone()
	})
	issued = true
}

// readLines returns, for iteration iter, the number of distinct remote
// 128B lines consumer g reads from each producer: the lines the producers
// would have pushed to g under the replication paradigms. Computed once
// per iteration window from the current window (all consumers of an
// iteration ask synchronously, before the next window is pulled) and
// cached for that window only, keeping RemoteRead O(window) like every
// other paradigm.
func (r *runner) readLines(iter, g int) []int {
	if r.readCache == nil || r.readIter != iter {
		perGPU := make([][]int, r.meta.NumGPUs)
		for c := 0; c < r.meta.NumGPUs; c++ {
			perGPU[c] = make([]int, r.meta.NumGPUs)
		}
		trackers := make(map[[2]int]*memsystem.ByteTracker)
		for src, w := range r.cur.PerGPU {
			for _, ws := range w.Stores {
				var txs []core.Store
				var err error
				if ws.Atomic {
					txs, err = r.coal.Expand(ws)
				} else {
					txs, err = r.coal.Coalesce(ws)
				}
				if err != nil {
					continue
				}
				for _, st := range txs {
					key := [2]int{src, st.Dst}
					tk, ok := trackers[key]
					if !ok {
						tk = memsystem.NewByteTracker()
						trackers[key] = tk
					}
					tk.Add(st.Addr, st.Size)
				}
			}
		}
		for key, tk := range trackers {
			perGPU[key[1]][key[0]] = tk.Lines()
			r.addUseful(key[0], key[1], tk.Unique())
		}
		r.readCache = perGPU
		r.readIter = iter
	}
	return r.readCache[g]
}

// scheduleCopies schedules one GPU's kernel under the memcpy paradigms:
// compute, then issue copies serially through the software stack; the
// barrier waits for delivery.
func (r *runner) scheduleCopies(g int, w trace.GPUWork, t0 des.Time, done func()) {
	tc := r.cfg.Compute.Duration(w.ComputeOps)
	r.sched.At(t0+tc, func() {
		if len(w.Copies) == 0 {
			done()
			return
		}
		api := r.cfg.DMAAPIOverhead
		if r.par == Infinite {
			api = 0
		}
		// DMA engines pipeline a copy across the fabric in chunks (the
		// hardware moves max-payload TLPs back to back; a whole copy is
		// not store-and-forwarded at each hop).
		const chunkBytes = 64 << 10
		outstanding := 0
		issued := false
		maybeDone := func() {
			if issued && outstanding == 0 {
				done()
			}
		}
		cursor := r.sched.Now()
		for _, c := range w.Copies {
			c := c
			cursor += api
			tlps, wire := r.cfg.FinePack.TLP.TLPsForTransfer(int(c.Bytes), r.cfg.FinePack.MaxPayload)
			r.dmaTLPs += uint64(tlps)
			r.res.DataBytes += c.Bytes
			r.addUseful(g, c.Dst, c.UsefulBytes)
			for off := uint64(0); off < wire; off += chunkBytes {
				n := wire - off
				if n > chunkBytes {
					n = chunkBytes
				}
				outstanding++
				r.sched.At(cursor, func() {
					r.net.Send(g, c.Dst, int(n), func() {
						outstanding--
						maybeDone()
					})
				})
			}
		}
		issued = true
		maybeDone()
	})
}

// scheduleStores spreads the kernel's store stream across its compute time
// in EmissionBatches batches (proactive stores overlap compute), then
// flushes the transport at kernel end. kernelEnd fires when the kernel
// retires (release issued); drained fires when every packet is delivered.
func (r *runner) scheduleStores(g int, w trace.GPUWork, t0 des.Time, tc des.Time, kernelEnd, drained func()) {
	e := r.engines[g]
	n := len(w.Stores)
	batches := r.cfg.EmissionBatches
	if batches > n {
		batches = n
	}
	for b := 0; b < batches; b++ {
		lo, hi := n*b/batches, n*(b+1)/batches
		chunk := w.Stores[lo:hi]
		// Batch b is produced at fraction b/batches of the kernel: stores
		// stream out across execution, leaving the final tc/batches for
		// the transport to drain before the kernel-end flush.
		at := t0 + tc*des.Time(b)/des.Time(batches)
		r.sched.At(at, func() {
			for _, ws := range chunk {
				if ws.Atomic {
					// Atomics bypass L1 coalescing: one transaction
					// per lane (§IV-C).
					txs, err := r.coal.ExpandObserved(ws, r.warpObs)
					if err != nil {
						r.fail(err)
						return
					}
					for _, st := range txs {
						r.res.StoresSent++
						r.track(g, st)
						if r.refMem != nil {
							r.refMem[st.Dst].Write(st)
						}
						if err := e.atomic(st); err != nil {
							r.fail(err)
							return
						}
					}
					continue
				}
				txs, err := r.coal.CoalesceObserved(ws, r.warpObs)
				if err != nil {
					r.fail(err)
					return
				}
				for _, st := range txs {
					r.res.StoresSent++
					r.track(g, st)
					if r.refMem != nil {
						r.refMem[st.Dst].Write(st)
					}
					if err := e.store(st); err != nil {
						r.fail(err)
						return
					}
				}
			}
		})
	}
	r.sched.At(t0+tc, func() {
		e.flush(drained)
		kernelEnd()
	})
}

// track records a store's bytes in the per-(src,dst) unique-byte tracker.
func (r *runner) track(src int, st core.Store) {
	key := src*r.meta.NumGPUs + st.Dst
	t := r.trackers[key]
	if t == nil {
		t = memsystem.NewByteTracker()
		r.trackers[key] = t
	}
	t.Add(st.Addr, st.Size)
}

// checkMemories verifies, at a barrier, that delivered bytes match program
// order exactly (the weak-memory-model end-to-end invariant).
func (r *runner) checkMemories(iter int) {
	for g := 0; g < r.meta.NumGPUs; g++ {
		if !r.refMem[g].Equal(r.actMem[g]) {
			r.checkErr = fmt.Errorf("sim: %s/%s: destination %d memory diverged at barrier %d",
				r.meta.Name, r.par, g, iter)
			r.sched.Halt()
			return
		}
	}
}

package core

import (
	"fmt"
	"math/bits"
)

// SubPacket is one compressed store inside a FinePack outer transaction:
// an address offset relative to the outer packet's base address, and the
// payload bytes. Its wire cost is len(Data) plus one sub-header
// (Config.SubheaderBytes), which encodes the offset and the 10-bit length.
type SubPacket struct {
	Offset uint64
	Data   []byte
}

// Packet is one transaction handed to the interconnect. For FinePack
// packets (Plain == false) the payload is a sequence of sub-packets sharing
// the outer TLP header, whose address field carries the window base
// (Table I). Plain packets are ordinary PCIe memory writes: the fallback
// for stores FinePack cannot represent, for baseline paradigms, and for
// uncoalesced atomics.
type Packet struct {
	// Dst is the destination GPU.
	Dst int
	// BaseAddr is the outer TLP address field: the window base for
	// FinePack packets, the store address for plain packets.
	BaseAddr uint64
	// Subs holds the packed stores. Plain packets have exactly one
	// sub-packet at offset 0.
	Subs []SubPacket
	// Plain marks an ordinary (non-FinePack) memory-write TLP.
	Plain bool
	// StoresMerged counts how many incoming stores were aggregated into
	// this packet (Fig 11's metric). Plain fallback packets count the
	// stores whose bytes they carry, attributed at flush time.
	StoresMerged int
	// Cause records why the packet was flushed out of the queue.
	Cause FlushCause
	// PayloadBytes and WireBytes are filled by the packetizer.
	PayloadBytes int
	WireBytes    int
}

// DataBytes returns the total store payload carried (excluding
// sub-headers).
func (p *Packet) DataBytes() int {
	n := 0
	for _, s := range p.Subs {
		n += len(s.Data)
	}
	return n
}

// FlushCause explains why a partition was flushed (§IV-B).
type FlushCause int

const (
	// CauseNone marks packets not produced by a queue flush.
	CauseNone FlushCause = iota
	// CauseWindowMiss: an incoming store fell outside the open window.
	CauseWindowMiss
	// CausePayloadFull: the store would overflow the max payload.
	CausePayloadFull
	// CauseEntriesFull: the partition had no free 128B entry.
	CauseEntriesFull
	// CauseRelease: a system-scoped release (fence / kernel end).
	CauseRelease
	// CauseLoadConflict: a remote load hit a queued store address.
	CauseLoadConflict
	// CauseAtomic: a remote atomic flushed its matching line.
	CauseAtomic
	// CauseTimeout: an inactivity timeout flushed the queue (§IV-B's
	// optional latency mitigation, not enabled in the paper's
	// evaluation).
	CauseTimeout
	// CauseDrain: end-of-simulation drain.
	CauseDrain
	numCauses
)

var causeNames = [numCauses]string{
	"none", "window-miss", "payload-full", "entries-full",
	"release", "load-conflict", "atomic", "timeout", "drain",
}

func (c FlushCause) String() string {
	if c < 0 || c >= numCauses {
		return fmt.Sprintf("cause(%d)", int(c)) //finepack:allow hotalloc -- out-of-range causes only; every real cause hits the static name table
	}
	return causeNames[c]
}

// NumFlushCauses is the number of distinct causes, for stats arrays.
const NumFlushCauses = int(numCauses)

// finalize computes payload and wire bytes for a packet under cfg.
func (p *Packet) finalize(cfg Config) {
	if p.Plain {
		p.PayloadBytes = p.DataBytes()
		p.WireBytes = cfg.TLP.WireBytes(p.PayloadBytes)
		return
	}
	payload := 0
	for _, s := range p.Subs {
		payload += cfg.SubheaderBytes + len(s.Data)
	}
	p.PayloadBytes = payload
	p.WireBytes = cfg.TLP.WireBytes(payload)
}

// SubheaderOverhead returns the bytes spent on sub-headers in the packet.
func (p *Packet) SubheaderOverhead(cfg Config) int {
	if p.Plain {
		return 0
	}
	return len(p.Subs) * cfg.SubheaderBytes
}

// NewPlainPacket builds an ordinary memory-write packet carrying data to
// dst at addr, with wire accounting under cfg.
func NewPlainPacket(cfg Config, dst int, addr uint64, data []byte) *Packet {
	p := &Packet{
		Dst:          dst,
		BaseAddr:     addr,
		Subs:         []SubPacket{{Offset: 0, Data: data}},
		Plain:        true,
		StoresMerged: 1,
	}
	p.finalize(cfg)
	return p
}

// PacketPool recycles packets, their sub-packet slices and their payload
// buffers within one run. Put takes back a packet together with its
// payload once nothing reads either any more, and a later draw reuses the
// struct, the Subs capacity and the buffer. The simulator returns each
// packet after its destination has drained the last of its stores.
//
// A packet's payload buffer is the backing array of its first sub-packet's
// Data: packets built from a pool carve every sub-packet from one buffer,
// starting at its front, and leave the first Data uncapped so Put can
// recover the whole buffer. Nothing may append through a packet's Data.
// While a packet waits in the pool, its buffer is parked in the first
// element of its (empty) Subs, so pooling adds no field to Packet — a run
// holds as many pooled packets as it ever had in flight, and every byte
// per packet counts.
//
// Pooled packets are kept in classes by buffer size, so a buffer only
// serves payloads close to its size: a 4-byte atomic never holds on to a
// 128-byte line's buffer, nor a small flush on to a full one's. Payloads
// up to a cache line round up to a multiple of 16 bytes, which costs at
// most a few bytes (from 32 bytes up, the allocator's own size classes
// are 16 bytes apart); larger ones are sized exactly, in power-of-two
// classes, so a reused buffer is never more than twice its payload.
//
// A nil *PacketPool is valid and recycles nothing: every draw allocates
// exactly as before and Put is a no-op, which is the contract for emit
// callbacks that retain packets. Like the Queue, a pool is not safe for
// concurrent use.
type PacketPool struct {
	free [numBufClasses][]*Packet // by bufClass of the parked buffer
}

const (
	// bufClassBytes is the class step for payloads up to a cache line.
	bufClassBytes = 16
	smallClasses  = CacheLineBytes / bufClassBytes
	cacheLineLog  = 7 // log2(CacheLineBytes)
	// Above a cache line there is one class per doubling up to
	// 2^maxBufLog bytes; larger payloads share the last class.
	maxBufLog     = 24
	numBufClasses = smallClasses + maxBufLog - cacheLineLog + 1
)

// bufClass returns the pool class of an n-byte payload and the capacity
// a new buffer for it gets: classes 1..smallClasses step by bufClassBytes
// and round capacity up to the step; above a cache line, class
// smallClasses+k-cacheLineLog holds (2^(k-1), 2^k] bytes, at exact
// capacity.
func bufClass(n int) (class, capacity int) {
	if n <= CacheLineBytes {
		c := max(1, (n+bufClassBytes-1)/bufClassBytes)
		return c, c * bufClassBytes
	}
	c := smallClasses + bits.Len(uint(n-1)) - cacheLineLog
	return min(c, numBufClasses-1), n
}

// get returns a zeroed packet and an empty payload buffer that holds n
// bytes: a pooled packet of n's class and its parked buffer when one is
// free, else new ones.
func (pp *PacketPool) get(n int) (*Packet, []byte) {
	if pp == nil {
		return &Packet{}, make([]byte, 0, n)
	}
	c, capacity := bufClass(n)
	free := pp.free[c]
	if len(free) == 0 {
		return &Packet{}, make([]byte, 0, capacity)
	}
	p := free[len(free)-1]
	free[len(free)-1] = nil
	pp.free[c] = free[:len(free)-1]
	var buf []byte
	if cap(p.Subs) > 0 {
		parked := &p.Subs[:1][0]
		buf = parked.Data
		parked.Data = nil
	}
	if cap(buf) < n { // a large class's smaller buffer, or a foreign one
		buf = make([]byte, 0, capacity)
	}
	return p, buf
}

// Put returns a packet and its payload to the pool. The caller must hold
// the only reference to both: the packet's fields and every Data slice
// become invalid. Packets not drawn from the pool are accepted on the
// same terms — their first sub-packet's Data becomes pool storage.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil {
		return
	}
	var buf []byte
	if len(p.Subs) > 0 {
		buf = p.Subs[0].Data[:0]
	}
	clear(p.Subs)
	*p = Packet{Subs: p.Subs[:0]}
	if cap(p.Subs) > 0 {
		p.Subs[:1][0].Data = buf
	}
	c, _ := bufClass(cap(buf))
	pp.free[c] = append(pp.free[c], p)
}

// plain draws a plain write of n payload bytes to dst at addr, with its
// wire accounting under cfg done; the caller fills Subs[0].Data.
func (pp *PacketPool) plain(cfg Config, dst int, addr uint64, n int) *Packet {
	p, buf := pp.get(n)
	p.Dst = dst
	p.BaseAddr = addr
	p.Plain = true
	p.StoresMerged = 1
	p.Subs = append(p.Subs, SubPacket{Data: buf[:n]})
	p.finalize(cfg)
	return p
}

// NewStorePacket validates s and builds, from the pool, the plain write
// that carries it alone, with its payload copied out of s: the uncoalesced
// egress of P2P stores and of every paradigm's atomics.
func (pp *PacketPool) NewStorePacket(cfg Config, s Store) (*Packet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := pp.plain(cfg, s.Dst, s.Addr, s.Size)
	data := p.Subs[0].Data
	for i := range data {
		data[i] = s.Byte(i)
	}
	return p, nil
}

// Depacketize reverses the packetizer: it expands a packet into the
// individual store transactions the destination GPU's memory system
// consumes, adding each sub-packet's offset to the outer base address
// (§IV-B, de-packetizer). The returned stores reference the packet's data
// slices; callers must not mutate them.
func Depacketize(p *Packet) []Store {
	return DepacketizeAppend(make([]Store, 0, len(p.Subs)), p)
}

// DepacketizeAppend is Depacketize into a caller-provided slice, so hot
// ingress paths can reuse one scratch buffer across packets instead of
// allocating per packet.
func DepacketizeAppend(out []Store, p *Packet) []Store {
	for _, s := range p.Subs {
		out = append(out, Store{
			Dst:  p.Dst,
			Addr: p.BaseAddr + s.Offset,
			Size: len(s.Data),
			Data: s.Data,
		})
	}
	return out
}

// ValidatePacket checks structural invariants the wire format requires:
// offsets fit the sub-header's offset field, lengths fit ten bits, and the
// payload respects the configured maximum.
func ValidatePacket(cfg Config, p *Packet) error {
	if p.Plain {
		if len(p.Subs) != 1 || p.Subs[0].Offset != 0 {
			return fmt.Errorf("core: plain packet must have one sub at offset 0")
		}
		return nil
	}
	if len(p.Subs) == 0 {
		return fmt.Errorf("core: empty FinePack packet")
	}
	maxLen := 1 << LengthFieldBits
	for i, s := range p.Subs {
		if s.Offset >= cfg.AddressableRange() {
			return fmt.Errorf("core: sub %d offset %d exceeds %d-bit field",
				i, s.Offset, cfg.OffsetBits())
		}
		if len(s.Data) == 0 || len(s.Data) > maxLen {
			return fmt.Errorf("core: sub %d length %d outside (0,%d]",
				i, len(s.Data), maxLen)
		}
	}
	if p.PayloadBytes > cfg.MaxPayload {
		return fmt.Errorf("core: payload %d exceeds max %d", p.PayloadBytes, cfg.MaxPayload)
	}
	return nil
}

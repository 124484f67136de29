package tracestream

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"finepack/internal/core"
	"finepack/internal/gpusim"
	"finepack/internal/trace"
)

// Reader opens a v2 chunked trace over any io.ReaderAt. Construction
// reads only the header, index, and trailer — O(iterations) memory, no
// store data — so `finepack-trace info` on a terabyte trace is three
// small reads. Iteration windows are decoded on demand through Source.
type Reader struct {
	r      io.ReaderAt
	size   int64
	meta   trace.Meta
	offs   []int64  // per-iteration chunk start offsets
	stores []uint64 // per-iteration warp-store counts (from the index)
	body   int64    // offset of the first iteration chunk
	index  int64    // offset of the index chunk
}

// NewReader parses the framing of a v2 stream. It returns ErrNotStream
// (possibly wrapped) when the input is not a v2 file at all, and
// ErrCorrupt/ErrTruncated for a v2 file that is damaged.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	// Smallest possible file: header chunk (8+2) + index chunk (8+2) + trailer.
	if size < chunkHeaderLen+2+chunkHeaderLen+2+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is too small", ErrNotStream, size)
	}
	// Header chunk. Framing errors here mean "not v2", not "corrupt v2":
	// the most likely cause is a file in another format (such as the
	// retired v1 gob encoding).
	var hb [chunkHeaderLen + 1]byte
	if _, err := r.ReadAt(hb[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading first chunk: %v", ErrNotStream, err)
	}
	hlen, hsum, err := parseChunkHeader(hb[:chunkHeaderLen], size)
	if err != nil || hb[chunkHeaderLen] != chunkHeader {
		return nil, fmt.Errorf("%w: no header chunk at offset 0", ErrNotStream)
	}
	hpay := make([]byte, hlen)
	if _, err := r.ReadAt(hpay, chunkHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: reading header chunk: %v", ErrTruncated, err)
	}
	if err := verifyChunk(hpay, hsum); err != nil {
		return nil, fmt.Errorf("%w: header chunk checksum mismatch", ErrCorrupt)
	}
	var h header
	if err := json.Unmarshal(hpay[1:], &h); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if h.Format != formatVersion {
		return nil, fmt.Errorf("%w: format %d, want %d", ErrNotStream, h.Format, formatVersion)
	}
	if h.NumGPUs < 1 || h.NumGPUs > maxHeaderGPUs {
		return nil, fmt.Errorf("%w: header declares %d GPUs", ErrCorrupt, h.NumGPUs)
	}
	if !(h.SingleGPUOpsPerIter > 0) || math.IsInf(h.SingleGPUOpsPerIter, 0) {
		return nil, fmt.Errorf("%w: header single-GPU ops %v", ErrCorrupt, h.SingleGPUOpsPerIter)
	}
	body := int64(chunkHeaderLen + hlen)

	// Trailer.
	var tb [trailerLen]byte
	if _, err := r.ReadAt(tb[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("%w: reading trailer: %v", ErrTruncated, err)
	}
	if [4]byte(tb[0:4]) != trailerMagic {
		return nil, fmt.Errorf("%w: trailer magic missing (torn tail?)", ErrTruncated)
	}
	if crc32.ChecksumIEEE(tb[0:12]) != binary.LittleEndian.Uint32(tb[12:16]) {
		return nil, fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(tb[4:12])
	if indexOff < uint64(body) || indexOff > uint64(size-trailerLen-chunkHeaderLen) {
		return nil, fmt.Errorf("%w: index offset %d outside file body", ErrCorrupt, indexOff)
	}

	// Index chunk.
	var xb [chunkHeaderLen]byte
	if _, err := r.ReadAt(xb[:], int64(indexOff)); err != nil {
		return nil, fmt.Errorf("%w: reading index chunk header: %v", ErrTruncated, err)
	}
	xlen, xsum, err := parseChunkHeader(xb[:], size-trailerLen-int64(indexOff))
	if err != nil {
		return nil, fmt.Errorf("%w: index chunk framing", ErrCorrupt)
	}
	xpay := make([]byte, xlen)
	if _, err := r.ReadAt(xpay, int64(indexOff)+chunkHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: reading index chunk: %v", ErrTruncated, err)
	}
	if err := verifyChunk(xpay, xsum); err != nil {
		return nil, fmt.Errorf("%w: index chunk checksum mismatch", ErrCorrupt)
	}
	if xpay[0] != chunkIndex {
		return nil, fmt.Errorf("%w: chunk at index offset has type %q", ErrCorrupt, xpay[0])
	}
	xb2 := xpay[1:]
	off := 0
	n, off, ok := uvarint(xb2, off)
	if !ok || n > maxIterations {
		return nil, fmt.Errorf("%w: index declares %d iterations", ErrCorrupt, n)
	}
	// Each entry costs at least two varint bytes; reject a count the
	// index body cannot possibly hold before allocating for it.
	if n > uint64(len(xb2)-off)/2 {
		return nil, fmt.Errorf("%w: index declares %d iterations in %d bytes", ErrCorrupt, n, len(xb2)-off)
	}
	offs := make([]int64, 0, n)
	counts := make([]uint64, 0, n)
	var prev int64
	for i := uint64(0); i < n; i++ {
		d, o1, ok1 := uvarint(xb2, off)
		s, o2, ok2 := uvarint(xb2, o1)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: index entry %d truncated", ErrCorrupt, i)
		}
		off = o2
		cur := prev + int64(d)
		first := cur == int64(body) && len(offs) == 0
		inOrder := len(offs) > 0 && cur > offs[len(offs)-1]
		if cur < 0 || cur >= int64(indexOff) || !(first || inOrder) {
			return nil, fmt.Errorf("%w: index entry %d offset %d out of order", ErrCorrupt, i, cur)
		}
		// A warp store encodes in no fewer than 5 bytes, so the chunk
		// region bounds the believable store count.
		if s > uint64(indexOff)/5+1 {
			return nil, fmt.Errorf("%w: index entry %d claims %d stores", ErrCorrupt, i, s)
		}
		offs = append(offs, cur)
		counts = append(counts, s)
		prev = cur
	}
	if off != len(xb2) {
		return nil, fmt.Errorf("%w: %d trailing bytes in index", ErrCorrupt, len(xb2)-off)
	}

	return &Reader{
		r:    r,
		size: size,
		meta: trace.Meta{
			Name:                h.Name,
			NumGPUs:             h.NumGPUs,
			SingleGPUOpsPerIter: h.SingleGPUOpsPerIter,
			Iterations:          len(offs),
		},
		offs:   offs,
		stores: counts,
		body:   body,
		index:  int64(indexOff),
	}, nil
}

// Meta returns the stream's trace-level metadata.
func (r *Reader) Meta() trace.Meta { return r.meta }

// NumWarpStores sums the index's per-iteration warp-store counts without
// touching any iteration chunk.
func (r *Reader) NumWarpStores() uint64 {
	var n uint64
	for _, s := range r.stores {
		n += s
	}
	return n
}

// IterInfo reports iteration i's chunk location, framed size in bytes,
// and warp-store count, all from the index.
func (r *Reader) IterInfo(i int) (offset, size int64, stores uint64) {
	end := r.index
	if i+1 < len(r.offs) {
		end = r.offs[i+1]
	}
	return r.offs[i], end - r.offs[i], r.stores[i]
}

// Size returns the total file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Source returns a streaming IterationSource over the file. Each Source
// holds its own decode buffers, so multiple sources over one Reader are
// independent.
func (r *Reader) Source() *FileSource {
	return &FileSource{r: r}
}

// FileSource streams iterations out of a v2 file with reused decode
// buffers: the raw chunk, the PerGPU slice, the store slices, and one
// shared address arena per window. It implements trace.IterationSource;
// each decoded window is checksum-verified and structurally validated
// before the simulator sees it.
type FileSource struct {
	r *Reader
	i int
	d iterDecoder
}

// Meta implements trace.IterationSource.
func (s *FileSource) Meta() trace.Meta { return s.r.meta }

// Reset implements trace.IterationSource.
func (s *FileSource) Reset() error {
	s.i = 0
	return nil
}

// Next implements trace.IterationSource.
func (s *FileSource) Next() (*trace.Iteration, error) {
	if s.i >= len(s.r.offs) {
		return nil, io.EOF
	}
	it, err := s.ReadIteration(s.i)
	if err != nil {
		return nil, err
	}
	s.i++
	return it, nil
}

// ReadIteration decodes iteration i into the source's reused buffers;
// the result is valid until the next ReadIteration/Next on this source.
// It is the random-access form of Next (sources seek in O(1) via the
// index).
func (s *FileSource) ReadIteration(i int) (*trace.Iteration, error) {
	if i < 0 || i >= len(s.r.offs) {
		return nil, fmt.Errorf("tracestream: iteration %d out of range [0,%d)", i, len(s.r.offs))
	}
	off, fsize, _ := s.r.IterInfo(i)
	if fsize < chunkHeaderLen+1 || fsize > maxChunkLen+chunkHeaderLen {
		return nil, fmt.Errorf("%w: iteration %d chunk size %d", ErrCorrupt, i, fsize)
	}
	if cap(s.d.chunk) < int(fsize) {
		s.d.chunk = make([]byte, fsize)
	}
	buf := s.d.chunk[:fsize]
	s.d.chunk = buf
	if _, err := s.r.r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: reading iteration %d: %v", ErrTruncated, i, err)
	}
	plen, sum, err := parseChunkHeader(buf[:chunkHeaderLen], fsize)
	if err != nil || int64(plen) != fsize-chunkHeaderLen {
		return nil, fmt.Errorf("%w: iteration %d chunk framing", ErrCorrupt, i)
	}
	pay := buf[chunkHeaderLen:]
	if err := verifyChunk(pay, sum); err != nil {
		return nil, fmt.Errorf("%w: iteration %d checksum mismatch", ErrCorrupt, i)
	}
	if pay[0] != chunkIteration {
		return nil, fmt.Errorf("%w: iteration %d has chunk type %q", ErrCorrupt, i, pay[0])
	}
	if err := decodeIteration(pay[1:], &s.d, s.r.meta.NumGPUs); err != nil {
		return nil, fmt.Errorf("tracestream: iteration %d: %w", i, err)
	}
	if err := s.d.it.ValidateIn(s.r.meta.Name, i, s.r.meta.NumGPUs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &s.d.it, nil
}

// iterDecoder holds a FileSource's reused decode state: the raw chunk,
// the iteration skeleton, and a single address arena shared by every
// store in the window (lane addresses are sub-sliced out of it after the
// arena stops growing).
type iterDecoder struct {
	chunk    []byte
	it       trace.Iteration
	arena    []uint64
	laneOffs []int
}

// decodeIteration decodes an iteration chunk body into d, reusing its
// buffers. Counts are checked against the remaining payload before any
// sized allocation, so a hostile chunk cannot demand more memory than
// its own (already CRC-verified) size.
//
//finepack:hotpath iteration window decode, once per streamed iteration
func decodeIteration(body []byte, d *iterDecoder, wantGPUs int) error {
	off := 0
	ng, off, ok := uvarint(body, off)
	if !ok || ng != uint64(wantGPUs) {
		return ErrCorrupt
	}
	if cap(d.it.PerGPU) < wantGPUs {
		d.it.PerGPU = make([]trace.GPUWork, wantGPUs)
	}
	d.it.PerGPU = d.it.PerGPU[:wantGPUs]
	arena := d.arena[:0]
	laneOffs := d.laneOffs[:0]
	for g := 0; g < wantGPUs; g++ {
		gw := &d.it.PerGPU[g]
		if off+8 > len(body) {
			return ErrTruncated
		}
		gw.ComputeOps = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		ns, noff, ok := uvarint(body, off)
		off = noff
		// A store encodes in ≥ 5 bytes (dst, elem, flags, lanes, addr).
		if !ok || ns > uint64(len(body)-off)/5 {
			return ErrCorrupt
		}
		if cap(gw.Stores) < int(ns) {
			gw.Stores = make([]gpusim.WarpStore, 0, ns)
		}
		gw.Stores = gw.Stores[:0]
		var prevFirst uint64
		for si := uint64(0); si < ns; si++ {
			dst, noff, ok := uvarint(body, off)
			off = noff
			if !ok || dst > maxHeaderGPUs {
				return ErrCorrupt
			}
			if off+3 > len(body) {
				return ErrTruncated
			}
			elem := body[off]
			flags := body[off+1]
			lanes := int(body[off+2])
			off += 3
			if flags&^1 != 0 || lanes < 1 || lanes > gpusim.WarpSize {
				return ErrCorrupt
			}
			delta, noff2, ok := varint(body, off)
			off = noff2
			if !ok {
				return ErrCorrupt
			}
			addr := prevFirst + uint64(delta)
			prevFirst = addr
			laneOffs = append(laneOffs, len(arena))
			arena = append(arena, addr)
			for l := 1; l < lanes; l++ {
				ld, noff3, ok := varint(body, off)
				off = noff3
				if !ok {
					return ErrCorrupt
				}
				addr += uint64(ld)
				arena = append(arena, addr)
			}
			gw.Stores = append(gw.Stores, gpusim.WarpStore{
				Dst:      int(dst),
				ElemSize: int(elem),
				Atomic:   flags&1 != 0,
			})
		}
		nc, noff4, ok := uvarint(body, off)
		off = noff4
		// A copy encodes in ≥ 3 bytes (dst, bytes, useful).
		if !ok || nc > uint64(len(body)-off)/3 {
			return ErrCorrupt
		}
		if cap(gw.Copies) < int(nc) {
			gw.Copies = make([]trace.Copy, 0, nc)
		}
		gw.Copies = gw.Copies[:0]
		for ci := uint64(0); ci < nc; ci++ {
			cdst, o1, ok1 := uvarint(body, off)
			cb, o2, ok2 := uvarint(body, o1)
			cu, o3, ok3 := uvarint(body, o2)
			if !ok1 || !ok2 || !ok3 || cdst > maxHeaderGPUs {
				return ErrCorrupt
			}
			off = o3
			gw.Copies = append(gw.Copies, trace.Copy{
				Dst:         int(cdst),
				Bytes:       core.Bytes(cb),
				UsefulBytes: core.Bytes(cu),
			})
		}
	}
	if off != len(body) {
		return ErrCorrupt
	}
	// Sub-slice lane addresses out of the arena only now that it has
	// stopped growing (append may have moved the backing array).
	d.arena = arena
	d.laneOffs = laneOffs
	k := 0
	for g := range d.it.PerGPU {
		stores := d.it.PerGPU[g].Stores
		for si := range stores {
			start := laneOffs[k]
			end := len(arena)
			if k+1 < len(laneOffs) {
				end = laneOffs[k+1]
			}
			stores[si].Addrs = arena[start:end]
			k++
		}
	}
	return nil
}

// File is a Reader over an open file, for the common open-by-path case.
type File struct {
	*Reader
	f *os.File
}

// OpenFile opens path as a v2 trace stream. ErrNotStream (wrapped) means
// the file exists but is not v2.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{Reader: r, f: f}, nil
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }

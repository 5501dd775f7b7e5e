// Package segment implements the v4 on-disk index segment: an immutable,
// trailer-indexed file whose vector section is laid out exactly as the
// scan kernel's SoA input (vecspace.Block tiles, word-major, little-
// endian), so a memory-mapped checkpoint IS the kernel's operand with
// zero rehydration. Zed's microindex files are the model: sections
// first, a fixed-size trailer of offsets last, so a reader parses the
// tail and lazily touches only the pages a query needs.
//
// Layout (all integers little-endian):
//
//	magic     8 bytes "GDIMIDX4"
//	meta      metric byte, MCS budget uvarint, p uvarint, p × (weight
//	          float64 + feature graph in internal/graph's binary codec),
//	          n uvarint, baseN uvarint, tile width uvarint, zone span
//	          uvarint — the whole-index scalars, decoded eagerly (small)
//	tiles     ceil(n/width) × words·width uint64 — the vector section,
//	          8-byte aligned, byte-compatible with vecspace.Block tiles
//	dead      ceil(n/8) bytes — tombstone bitmap, id i at byte i/8 bit i%8
//	gidx      (n+1) × uint64 — graph payload offset table, blob i spans
//	          [gidx[i], gidx[i+1]) of the graphs section (lazy faulting)
//	graphs    concatenated graph blobs (internal/graph binary codec)
//	ones      n × uint32 — per-id set-bit counts (posting buckets)
//	posts     p × (uint32 count + count × uint32 ids) — the posting lists
//	zmin/zmax zones × uint32 each — per-zone ones-count min/max
//	zsums     zones × words × uint64 — per-zone dimension-presence bitmaps
//	trailer   fixed 144 bytes: section offsets/lengths, n/p/width/baseN/
//	          zoneSpan/zones, body crc32, trailer crc32, "GDSEG4TR"
//
// The zone sections are derived skip metadata, never part of the durable
// record (Provenance-based Data Skipping): a reader that distrusts or
// cannot use them (different zone span) rebuilds from the tiles and
// loses nothing but open time.
//
// Integrity: the trailer carries its own crc, so a torn or truncated
// file is rejected at open without reading the body. The body crc covers
// everything before the trailer and is verified on the heap (copy) path,
// which reads every byte anyway; a mapped open deliberately skips it —
// checksumming would fault every page and defeat lazy loading — and
// trusts the checkpoint discipline that produced the file (fsync before
// the manifest references it). VerifyBody exists for auditing.
package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/posting"
	"repro/internal/vecspace"
)

// Magic is the v4 file magic.
const Magic = "GDIMIDX4"

const (
	trailerMagic = "GDSEG4TR"
	trailerSize  = 144
	// width is the one tile width the kernel runs; the header and trailer
	// still record it so a file packed any other way is refused by name.
	width = vecspace.DefaultBlockWidth
	// maxElems bounds decoded counts before any allocation, shared with
	// the graph codec's anti-bomb limit.
	maxElems = graph.MaxBinaryElems
)

var crcTable = crc32.IEEETable

// hostLittleEndian reports whether uint64s can be reinterpreted over the
// file's little-endian sections. On the (rare) big-endian host every
// typed accessor decode-copies instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Meta is the whole-index scalar state a segment carries.
type Meta struct {
	Metric    byte
	MCSBudget int64
	Weights   []float64
	Features  []*graph.Graph
	BaseN     int
}

// Payload is everything Write serializes. Block supplies n, p, the
// tiles, and the zone map; Graph returns the encoded blob of graph i
// (a writer holding a source segment returns the raw bytes — graphs are
// immutable, so a checkpoint never re-encodes the mapped base); List
// returns dimension r's ascending posting list.
type Payload struct {
	Meta  Meta
	Block *vecspace.Block
	Dead  []bool
	Graph func(i int) ([]byte, error)
	Ones  []int32
	List  func(r int) []int32
}

// countCRCWriter tracks offset and a running crc of everything written.
type countCRCWriter struct {
	w   io.Writer
	n   int64
	sum uint32
}

func (c *countCRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

var pad8 [8]byte

// align8 pads the stream to the next 8-byte boundary.
func (c *countCRCWriter) align8() error {
	if rem := c.n % 8; rem != 0 {
		_, err := c.Write(pad8[:8-rem])
		return err
	}
	return nil
}

func (c *countCRCWriter) u32(x uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	_, err := c.Write(b[:])
	return err
}

func (c *countCRCWriter) u64(x uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	_, err := c.Write(b[:])
	return err
}

func (c *countCRCWriter) uvarint(x uint64) error {
	var b [binary.MaxVarintLen64]byte
	_, err := c.Write(b[:binary.PutUvarint(b[:], x)])
	return err
}

// Write streams a v4 segment to w. The encoding is sequential (offsets
// are recorded as sections stream out and land in the trailer), so w can
// be a plain *os.File with no seeking.
func Write(w io.Writer, pl Payload) (err error) {
	blk := pl.Block
	n, p, width, words := blk.N(), blk.P(), blk.Width(), blk.Words()
	if len(pl.Dead) != n || len(pl.Ones) != n {
		return fmt.Errorf("segment: payload lengths disagree with block (n=%d dead=%d ones=%d)", n, len(pl.Dead), len(pl.Ones))
	}
	cw := &countCRCWriter{w: w}
	fail := func(err error) error { return fmt.Errorf("segment: encode: %w", err) }
	if _, err := io.WriteString(cw, Magic); err != nil {
		return fail(err)
	}

	// meta
	m := pl.Meta
	if _, err := cw.Write([]byte{m.Metric}); err != nil {
		return fail(err)
	}
	if err := cw.uvarint(uint64(m.MCSBudget)); err != nil {
		return fail(err)
	}
	if err := cw.uvarint(uint64(p)); err != nil {
		return fail(err)
	}
	var f64 [8]byte
	for i, g := range m.Features {
		binary.LittleEndian.PutUint64(f64[:], math.Float64bits(m.Weights[i]))
		if _, err := cw.Write(f64[:]); err != nil {
			return fail(err)
		}
		if err := graph.WriteBinary(cw, g); err != nil {
			return fail(err)
		}
	}
	for _, x := range []uint64{uint64(n), uint64(m.BaseN), uint64(width), uint64(vecspace.ZoneSpan)} {
		if err := cw.uvarint(x); err != nil {
			return fail(err)
		}
	}

	// tiles
	if err := cw.align8(); err != nil {
		return fail(err)
	}
	tilesOff := cw.n
	buf := make([]byte, words*width*8)
	for t := 0; t < blk.Tiles(); t++ {
		tile := blk.Tile(t)
		for i, word := range tile {
			binary.LittleEndian.PutUint64(buf[i*8:], word)
		}
		if _, err := cw.Write(buf[:len(tile)*8]); err != nil {
			return fail(err)
		}
	}

	// dead bitmap
	deadOff := cw.n
	db := make([]byte, (n+7)/8)
	for i, d := range pl.Dead {
		if d {
			db[i/8] |= 1 << (uint(i) % 8)
		}
	}
	if _, err := cw.Write(db); err != nil {
		return fail(err)
	}

	// graph offset table + payload: blobs are collected first so the
	// table can stream before them without seeking.
	if err := cw.align8(); err != nil {
		return fail(err)
	}
	gidxOff := cw.n
	blobs := make([][]byte, n)
	off := uint64(0)
	if err := cw.u64(0); err != nil {
		return fail(err)
	}
	for i := 0; i < n; i++ {
		b, err := pl.Graph(i)
		if err != nil {
			return fail(err)
		}
		blobs[i] = b
		off += uint64(len(b))
		if err := cw.u64(off); err != nil {
			return fail(err)
		}
	}
	graphsOff := cw.n
	for _, b := range blobs {
		if _, err := cw.Write(b); err != nil {
			return fail(err)
		}
	}
	graphsLen := cw.n - graphsOff

	// ones + posting lists
	if err := cw.align8(); err != nil {
		return fail(err)
	}
	onesOff := cw.n
	for _, o := range pl.Ones {
		if err := cw.u32(uint32(o)); err != nil {
			return fail(err)
		}
	}
	postOff := cw.n
	for r := 0; r < p; r++ {
		l := pl.List(r)
		if err := cw.u32(uint32(len(l))); err != nil {
			return fail(err)
		}
		for _, id := range l {
			if err := cw.u32(uint32(id)); err != nil {
				return fail(err)
			}
		}
	}
	postLen := cw.n - postOff

	// zone metadata
	if err := cw.align8(); err != nil {
		return fail(err)
	}
	zminOff := cw.n
	zones := blk.Zones()
	nz := zones.Zones()
	for zi := 0; zi < nz; zi++ {
		if err := cw.u32(uint32(zones.MinOnes(zi))); err != nil {
			return fail(err)
		}
	}
	for zi := 0; zi < nz; zi++ {
		if err := cw.u32(uint32(zones.MaxOnes(zi))); err != nil {
			return fail(err)
		}
	}
	if err := cw.align8(); err != nil {
		return fail(err)
	}
	zsumsOff := cw.n
	for zi := 0; zi < nz; zi++ {
		for _, word := range zones.Summary(zi) {
			if err := cw.u64(word); err != nil {
				return fail(err)
			}
		}
	}

	// trailer: the body crc is latched before the trailer bytes start,
	// the trailer crc before its own field.
	bodyCRC := cw.sum
	trailerStart := cw.n
	cw.sum = 0
	for _, x := range []int64{tilesOff, deadOff, gidxOff, graphsOff, graphsLen,
		onesOff, postOff, postLen, zminOff, zsumsOff} {
		if err := cw.u64(uint64(x)); err != nil {
			return fail(err)
		}
	}
	for _, x := range []uint64{uint64(n), uint64(p), uint64(width),
		uint64(m.BaseN), uint64(vecspace.ZoneSpan), uint64(nz)} {
		if err := cw.u64(x); err != nil {
			return fail(err)
		}
	}
	if err := cw.u32(bodyCRC); err != nil {
		return fail(err)
	}
	if err := cw.u32(cw.sum); err != nil {
		return fail(err)
	}
	if _, err := io.WriteString(cw, trailerMagic); err != nil {
		return fail(err)
	}
	if cw.n-trailerStart != trailerSize {
		return fmt.Errorf("segment: internal error: trailer is %d bytes, want %d", cw.n-trailerStart, trailerSize)
	}
	return nil
}

// Options configures Open.
type Options struct {
	// Map requests a read-only memory mapping of the file, so vector
	// tiles (and graph payloads) are demand-paged instead of loaded.
	// Where the platform offers no mmap (see CanMap) the open silently
	// falls back to reading the file into the heap — same Reader, same
	// answers, RAM-resident. Mapped() reports which happened.
	Map bool
}

// Reader is an opened segment. All accessors are safe for concurrent
// use; the underlying bytes are immutable (a read-only mapping or a
// private heap copy).
type Reader struct {
	data   []byte
	mapped bool
	closer func() error

	meta     Meta
	n, p     int
	words    int
	zoneSpan int
	nz       int

	tilesOff, deadOff, gidxOff, graphsOff, graphsLen int64
	onesOff, postOff, postLen, zminOff, zsumsOff     int64
	trailerOff                                       int64
}

// Open opens a v4 segment file. The trailer (and its crc) is always
// verified, so a torn or truncated file fails here with a clear error;
// with opt.Map the body is demand-paged and its crc is NOT verified
// (see the package comment), otherwise the file is read into the heap
// and fully checksummed.
func Open(path string, opt Options) (*Reader, error) {
	data, mapped, closer, err := openBytes(path, opt.Map)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	r, err := NewReader(data, mapped, closer)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	if !mapped {
		if err := r.VerifyBody(); err != nil {
			return nil, fmt.Errorf("segment: open %s: %w", path, err)
		}
	}
	return r, nil
}

// NewReader parses a segment held in data. mapped records how the bytes
// are backed (for Mapped()); closer, if non-nil, releases them (Close).
func NewReader(data []byte, mapped bool, closer func() error) (*Reader, error) {
	if legacy := legacyFormat(data); legacy != "" {
		return nil, fmt.Errorf("legacy %s index file: this release reads only v4 segments (%s); open it once with the previous release and checkpoint", legacy, Magic)
	}
	if len(data) < len(Magic)+trailerSize {
		return nil, fmt.Errorf("truncated segment (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("bad magic %q", data[:len(Magic)])
	}
	r := &Reader{data: data, mapped: mapped, closer: closer}
	r.trailerOff = int64(len(data) - trailerSize)
	tr := data[r.trailerOff:]
	if string(tr[trailerSize-8:]) != trailerMagic {
		return nil, fmt.Errorf("torn trailer (bad trailer magic %q)", tr[trailerSize-8:])
	}
	if got, want := crc32.Checksum(tr[:trailerSize-12], crcTable), binary.LittleEndian.Uint32(tr[trailerSize-12:]); got != want {
		return nil, fmt.Errorf("torn trailer (crc %08x, computed %08x)", want, got)
	}
	u64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(tr[i*8:])) }
	r.tilesOff, r.deadOff, r.gidxOff, r.graphsOff, r.graphsLen = u64(0), u64(1), u64(2), u64(3), u64(4)
	r.onesOff, r.postOff, r.postLen, r.zminOff, r.zsumsOff = u64(5), u64(6), u64(7), u64(8), u64(9)
	n, p, tileWidth, baseN, zoneSpan, nz := u64(10), u64(11), u64(12), u64(13), u64(14), u64(15)
	if n < 0 || n > maxElems || p < 0 || p > maxElems || nz < 0 || nz > maxElems {
		return nil, fmt.Errorf("corrupt trailer: n=%d p=%d zones=%d", n, p, nz)
	}
	if tileWidth != width {
		return nil, fmt.Errorf("unsupported tile width %d (this release reads and writes only width %d)", tileWidth, width)
	}
	if baseN < 0 || baseN > n {
		return nil, fmt.Errorf("corrupt trailer: baseN %d > n %d", baseN, n)
	}
	r.n, r.p, r.zoneSpan, r.nz = int(n), int(p), int(zoneSpan), int(nz)
	r.words = (r.p + 63) / 64
	r.meta.BaseN = int(baseN)

	// Every section must lie inside [len(Magic), trailerOff) with the
	// size its scalars imply, so no accessor can slice out of bounds.
	nt := (r.n + width - 1) / width
	stride := int64(r.words * width * 8)
	secs := []struct {
		name     string
		off, len int64
	}{
		{"tiles", r.tilesOff, int64(nt) * stride},
		{"dead", r.deadOff, int64((r.n + 7) / 8)},
		{"gidx", r.gidxOff, int64(r.n+1) * 8},
		{"graphs", r.graphsOff, r.graphsLen},
		{"ones", r.onesOff, int64(r.n) * 4},
		{"posts", r.postOff, r.postLen},
		{"zmin", r.zminOff, int64(r.nz) * 8}, // zmin and zmax, back to back
		{"zsums", r.zsumsOff, int64(r.nz) * int64(r.words) * 8},
	}
	for _, s := range secs {
		if s.off < int64(len(Magic)) || s.len < 0 || s.off+s.len > r.trailerOff {
			return nil, fmt.Errorf("corrupt trailer: %s section [%d,+%d) outside file", s.name, s.off, s.len)
		}
	}
	for _, off := range []int64{r.tilesOff, r.gidxOff, r.zsumsOff} {
		if off%8 != 0 {
			return nil, fmt.Errorf("corrupt trailer: misaligned section offset %d", off)
		}
	}

	if err := r.decodeMeta(); err != nil {
		return nil, err
	}
	return r, nil
}

// legacyFormat names the retired index generation data starts with, ""
// for anything else. Those files are intact, not corrupt, so the open
// error says what they are and how to upgrade them.
func legacyFormat(data []byte) string {
	switch {
	case bytes.HasPrefix(data, []byte("GDIMIDX2")):
		return "v2 binary"
	case bytes.HasPrefix(data, []byte("GDIMIDX3")):
		return "v3 binary"
	case bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")):
		return "v1 JSON"
	}
	return ""
}

// decodeMeta eagerly decodes the small whole-index scalars between the
// magic and the tiles section.
func (r *Reader) decodeMeta() error {
	br := bytes.NewReader(r.data[len(Magic):r.tilesOff])
	b, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("corrupt meta: %w", graph.NoEOF(err))
	}
	r.meta.Metric = b
	budget, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("corrupt meta: %w", graph.NoEOF(err))
	}
	if budget > math.MaxInt64 {
		return fmt.Errorf("corrupt meta: MCS budget %d overflows", budget)
	}
	r.meta.MCSBudget = int64(budget)
	p64, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("corrupt meta: %w", graph.NoEOF(err))
	}
	if p64 != uint64(r.p) {
		return fmt.Errorf("corrupt meta: p %d disagrees with trailer %d", p64, r.p)
	}
	r.meta.Weights = make([]float64, 0, min(r.p, 1<<16))
	r.meta.Features = make([]*graph.Graph, 0, min(r.p, 1<<16))
	var f64 [8]byte
	for i := 0; i < r.p; i++ {
		if _, err := io.ReadFull(br, f64[:]); err != nil {
			return fmt.Errorf("corrupt meta: weight %d: %w", i, graph.NoEOF(err))
		}
		r.meta.Weights = append(r.meta.Weights, math.Float64frombits(binary.LittleEndian.Uint64(f64[:])))
		g, err := graph.ReadBinary(br)
		if err != nil {
			return fmt.Errorf("corrupt meta: feature %d: %w", i, err)
		}
		r.meta.Features = append(r.meta.Features, g)
	}
	for _, want := range []uint64{uint64(r.n), uint64(r.meta.BaseN), width, uint64(r.zoneSpan)} {
		got, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("corrupt meta: %w", graph.NoEOF(err))
		}
		if got != want {
			return fmt.Errorf("corrupt meta: scalar %d disagrees with trailer %d", got, want)
		}
	}
	return nil
}

// Meta returns the whole-index scalars. The slices are owned by the
// reader.
func (r *Reader) Meta() Meta { return r.meta }

// N returns the number of id slots (live + tombstoned).
func (r *Reader) N() int { return r.n }

// P returns the dimensionality.
func (r *Reader) P() int { return r.p }

// Mapped reports whether the bytes are a memory mapping (false: private
// heap copy — the portable fallback, or an explicit heap open).
func (r *Reader) Mapped() bool { return r.mapped }

// Close releases the mapping (or lets the heap copy go). The Reader—and
// every slice an accessor aliased out of it—must not be used afterwards;
// graphdim instead drops readers on the floor and lets the finalizer
// installed by openBytes unmap, because snapshots holding aliased tiles
// have unbounded reader-side lifetimes.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	c := r.closer
	r.closer = nil
	return c()
}

// VerifyBody checksums everything before the trailer against the body
// crc — the heap open does this automatically; for a mapped segment it
// is an explicit (page-faulting) audit.
func (r *Reader) VerifyBody() error {
	want := binary.LittleEndian.Uint32(r.data[r.trailerOff+trailerSize-16:])
	if got := crc32.Checksum(r.data[:r.trailerOff], crcTable); got != want {
		return fmt.Errorf("body checksum mismatch (file %08x, computed %08x)", want, got)
	}
	return nil
}

// aliasU64 reinterprets an 8-aligned little-endian section as []uint64
// without copying; falls back to a decoded copy on big-endian or
// misaligned (heap copy base) memory.
func (r *Reader) aliasU64(off, count int64) []uint64 {
	if count == 0 {
		return nil
	}
	b := r.data[off : off+count*8]
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), count)[:count:count]
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// aliasI32 is aliasU64 for 4-aligned little-endian uint32 sections read
// as int32 (ids and ones counts are non-negative int32s everywhere).
func (r *Reader) aliasI32(off, count int64) []int32 {
	if count == 0 {
		return nil
	}
	b := r.data[off : off+count*4]
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)[:count:count]
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Block adopts the tile section as the scan kernel's SoA block — on a
// mapped little-endian host this is zero-copy: the returned Block's
// tiles are subslices of the mapping. The zone map comes from the zone
// sections when their span matches the running binary's (it is derived
// metadata — a span change just means rebuilding from the tiles).
func (r *Reader) Block() (*vecspace.Block, error) {
	nt := (r.n + width - 1) / width
	words := r.aliasU64(r.tilesOff, int64(nt)*int64(r.words*width))
	var zones *vecspace.ZoneMap
	if r.zoneSpan == vecspace.ZoneSpan && r.nz == (r.n+vecspace.ZoneSpan-1)/vecspace.ZoneSpan {
		mins := r.aliasI32(r.zminOff, int64(r.nz))
		maxs := r.aliasI32(r.zminOff+int64(r.nz)*4, int64(r.nz))
		sums := r.aliasU64(r.zsumsOff, int64(r.nz)*int64(r.words))
		for zi := 0; zi < r.nz; zi++ {
			if mins[zi] < 0 || maxs[zi] < mins[zi] || maxs[zi] > int32(r.p) {
				return nil, fmt.Errorf("segment: corrupt zone %d: ones range [%d,%d]", zi, mins[zi], maxs[zi])
			}
		}
		zones = vecspace.NewZoneMap(r.words, mins, maxs, sums)
	}
	return vecspace.BlockFromWords(r.n, r.p, words, zones), nil
}

// Dead decodes the tombstone bitmap into the heap (tombstones are COW
// runtime state, never served from the mapping).
func (r *Reader) Dead() ([]bool, int) {
	b := r.data[r.deadOff:]
	out := make([]bool, r.n)
	count := 0
	for i := 0; i < r.n; i++ {
		if b[i/8]&(1<<(uint(i)%8)) != 0 {
			out[i] = true
			count++
		}
	}
	return out, count
}

// GraphBytes returns graph i's encoded blob — a subslice of the segment,
// so a checkpoint of a mapped base copies payloads verbatim without
// decoding them.
func (r *Reader) GraphBytes(i int) ([]byte, error) {
	gidx := r.data[r.gidxOff:]
	lo := int64(binary.LittleEndian.Uint64(gidx[i*8:]))
	hi := int64(binary.LittleEndian.Uint64(gidx[(i+1)*8:]))
	if lo < 0 || hi < lo || hi > r.graphsLen {
		return nil, fmt.Errorf("segment: corrupt graph offsets [%d,%d) for payload of %d bytes", lo, hi, r.graphsLen)
	}
	return r.data[r.graphsOff+lo : r.graphsOff+hi], nil
}

// GraphAt decodes graph i from its payload blob — the lazy faulting path
// of the verified engine.
func (r *Reader) GraphAt(i int) (*graph.Graph, error) {
	b, err := r.GraphBytes(i)
	if err != nil {
		return nil, err
	}
	br := bytes.NewReader(b)
	g, err := graph.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("segment: corrupt graph %d: %w", i, err)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("segment: corrupt graph %d: %d trailing bytes", i, br.Len())
	}
	return g, nil
}

// Postings assembles the posting index from the ones and posting-list
// sections, aliasing each per-dimension id list out of the segment
// (capacity-clipped: a later Append copies instead of writing through).
// Validation is structural — ids strictly ascending and in range, the
// total posting count equal to the total ones count — which, with the
// body/trailer integrity story above, is what keeps a corrupt list from
// ever indexing out of bounds.
func (r *Reader) Postings() (*posting.Index, error) {
	ones := r.aliasI32(r.onesOff, int64(r.n))
	sumOnes := int64(0)
	for id, o := range ones {
		if o < 0 || int(o) > r.p {
			return nil, fmt.Errorf("segment: corrupt ones count %d for id %d", o, id)
		}
		sumOnes += int64(o)
	}
	lists := make([][]int32, r.p)
	off := r.postOff
	end := r.postOff + r.postLen
	decoded := int64(0)
	for d := 0; d < r.p; d++ {
		if off+4 > end {
			return nil, fmt.Errorf("segment: posting section truncated at dimension %d", d)
		}
		count := int64(binary.LittleEndian.Uint32(r.data[off:]))
		off += 4
		if count > int64(r.n) || off+count*4 > end {
			return nil, fmt.Errorf("segment: dimension %d: %d postings for %d graphs", d, count, r.n)
		}
		l := r.aliasI32(off, count)
		off += count * 4
		prev := int32(-1)
		for _, id := range l {
			if id <= prev || int64(id) >= int64(r.n) {
				return nil, fmt.Errorf("segment: dimension %d: id %d after %d (n %d)", d, id, prev, r.n)
			}
			prev = id
		}
		decoded += count
		lists[d] = l
	}
	if off != end {
		return nil, fmt.Errorf("segment: %d trailing bytes in posting section", end-off)
	}
	if decoded != sumOnes {
		return nil, fmt.Errorf("segment: %d postings for %d set bits", decoded, sumOnes)
	}
	return posting.FromLists(r.p, r.n, lists, ones), nil
}

// readHeapBytes is the portable open path: the whole file as a private
// heap copy.
func readHeapBytes(path string) ([]byte, bool, func() error, error) {
	data, err := os.ReadFile(path)
	return data, false, nil, err
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

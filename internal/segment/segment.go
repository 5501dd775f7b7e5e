// Package segment implements the v6 on-disk index segment: an immutable,
// trailer-indexed file whose vector section is laid out exactly as the
// scan kernel's SoA input (vecspace.Block tiles, word-major, little-
// endian), so a memory-mapped checkpoint IS the kernel's operand with
// zero rehydration. Zed's microindex files are the model: sections
// first, a fixed-size trailer of offsets last, so a reader parses the
// tail and decodes only the sections a query needs.
//
// Layout (all integers little-endian):
//
//	magic     8 bytes "GDIMIDX6"
//	meta      metric byte, MCS budget uvarint, p uvarint, p × (weight
//	          float64 + feature graph in internal/graph's binary codec),
//	          n uvarint, baseN uvarint — the whole-index scalars, decoded
//	          eagerly (small)
//	tiles     ceil(n/16) × words·16 uint64 — the vector section, 8-byte
//	          aligned, byte-compatible with vecspace.Block tiles (the tile
//	          width is the kernel's constant, vecspace.DefaultBlockWidth)
//	dead      ceil(n/8) bytes — tombstone bitmap, id i at byte i/8 bit i%8
//	gidx      (n+1) × uint64 — graph payload offset table, blob i spans
//	          [gidx[i], gidx[i+1]) of the graphs section (lazy faulting)
//	graphs    concatenated graph blobs (internal/graph binary codec)
//	ids       n × uint32, 4-byte aligned — the lane→global id table: the
//	          collection-global id of each lane of a shard (a stand-alone
//	          index writes its own ids, 0..n-1)
//	trailer   fixed 88 bytes: the tiles/dead/gidx/graphs offsets, the
//	          graphs length, the ids offset, n, p, baseN (uint64 each),
//	          body crc32, trailer crc32, "GDSEG6TR"
//
// A segment stores only what cannot be derived. The zone map that bounds
// a scan is a function of the tiles, and the reader's Block derives it;
// dimension filters read the tiles in place, and graphdim builds only its
// label lists on first demand — so no file can hold skip metadata that
// disagrees with its own vectors.
//
// v6 is the one format written and the one read. Files of the retired
// generations (v1 JSON, v2, v3, v4, v5) are refused by name with the
// upgrade path, never called corrupt.
//
// Integrity: every open reads each file once and checks it. NewReader
// verifies the trailer's own crc, then the body crc over everything
// before the trailer, so a torn, truncated or bit-flipped file is
// refused before any section is served. On a mapped open the checksum
// pass faults each page once; those pages stay file-backed and
// reclaimable, so a store larger than RAM still opens.
package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/posting"
	"repro/internal/vecspace"
)

// Magic is the v6 file magic, the one format Write produces.
const Magic = "GDIMIDX6"

const (
	trailerMagic = "GDSEG6TR"
	trailerSize  = 88
	// width is the one tile width the kernel runs.
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

// Payload is everything Write serializes. Block supplies n, p and the
// tiles; IDs holds the n lane→global ids, each in [0, 2^32); Graph
// returns the encoded blob of graph i (a writer holding a source segment
// returns the raw bytes — graphs are immutable, so a checkpoint never
// re-encodes the mapped base). Dead is the tombstone
// bitset, id i at bit i%64 of word i/64 — the dead section's bit order
// read as little-endian words — with ceil(n/64) words and no bit set at
// or past n.
type Payload struct {
	Meta  Meta
	Block *vecspace.Block
	Dead  []uint64
	IDs   []int
	Graph func(i int) ([]byte, error)
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

// align pads the stream to the next multiple of to (at most 8) bytes.
func (c *countCRCWriter) align(to int64) error {
	if rem := c.n % to; rem != 0 {
		_, err := c.Write(pad8[:to-rem])
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

// Write streams a v6 segment to w. The encoding is sequential (offsets
// are recorded as sections stream out and land in the trailer), so w can
// be a plain *os.File with no seeking.
func Write(w io.Writer, pl Payload) (err error) {
	blk := pl.Block
	n, p, words := blk.N(), blk.P(), blk.Words()
	if len(pl.Dead) != (n+63)/64 || len(pl.IDs) != n {
		return fmt.Errorf("segment: payload lengths disagree with block (n=%d dead=%d ids=%d)", n, len(pl.Dead), len(pl.IDs))
	}
	ids := make([]byte, 4*n)
	for i, id := range pl.IDs {
		if id < 0 || id > math.MaxUint32 {
			return fmt.Errorf("segment: id %d of lane %d outside [0,2^32)", id, i)
		}
		binary.LittleEndian.PutUint32(ids[4*i:], uint32(id))
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
	for _, x := range []uint64{uint64(n), uint64(m.BaseN)} {
		if err := cw.uvarint(x); err != nil {
			return fail(err)
		}
	}

	// tiles
	if err := cw.align(8); err != nil {
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
	for i := range db {
		db[i] = byte(pl.Dead[i/8] >> (i % 8 * 8))
	}
	if _, err := cw.Write(db); err != nil {
		return fail(err)
	}

	// graph offset table + payload: blobs are collected first so the
	// table can stream before them without seeking.
	if err := cw.align(8); err != nil {
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

	// ids
	if err := cw.align(4); err != nil {
		return fail(err)
	}
	idsOff := cw.n
	if _, err := cw.Write(ids); err != nil {
		return fail(err)
	}

	// trailer: the body crc is latched before the trailer bytes start,
	// the trailer crc before its own field.
	bodyCRC := cw.sum
	trailerStart := cw.n
	cw.sum = 0
	for _, x := range []int64{tilesOff, deadOff, gidxOff, graphsOff, graphsLen,
		idsOff, int64(n), int64(p), int64(m.BaseN)} {
		if err := cw.u64(uint64(x)); err != nil {
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

	meta  Meta
	n, p  int
	words int

	tilesOff, deadOff, gidxOff, graphsOff, graphsLen, idsOff, trailerOff int64
}

// Open opens a v6 segment file and checks it (see the package comment),
// so a torn, truncated or corrupt file fails here with a clear error.
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
	return r, nil
}

// NewReader parses a segment held in data after checking its trailer
// and body checksums. mapped records how the bytes are backed (for
// Mapped()); closer, if non-nil, releases them (Close).
func NewReader(data []byte, mapped bool, closer func() error) (*Reader, error) {
	if legacy := legacyFormat(data); legacy != "" {
		return nil, fmt.Errorf("legacy %s index file: this release reads only v6 segments; open it once with the previous release that reads it and checkpoint", legacy)
	}
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("truncated segment (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("bad magic %q", data[:len(Magic)])
	}
	if len(data) < len(Magic)+trailerSize {
		return nil, fmt.Errorf("truncated segment (%d bytes)", len(data))
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
	if want, got := binary.LittleEndian.Uint32(tr[trailerSize-16:]), crc32.Checksum(data[:r.trailerOff], crcTable); got != want {
		return nil, fmt.Errorf("body checksum mismatch (file %08x, computed %08x)", want, got)
	}
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(tr[i*8:]) }
	off := func(i int) int64 { return int64(u64(i)) }
	r.tilesOff, r.deadOff, r.gidxOff, r.graphsOff, r.graphsLen, r.idsOff = off(0), off(1), off(2), off(3), off(4), off(5)
	n, p, baseN := u64(6), u64(7), u64(8)
	if n > maxElems || p > maxElems {
		return nil, fmt.Errorf("corrupt trailer: n=%d p=%d", n, p)
	}
	if baseN > n {
		return nil, fmt.Errorf("corrupt trailer: baseN %d > n %d", baseN, n)
	}
	r.n, r.p = int(n), int(p)
	r.words = (r.p + 63) / 64
	r.meta.BaseN = int(baseN)

	// Every section must lie inside [len(Magic), trailerOff) with the
	// size its scalars imply, so no accessor can slice out of bounds.
	nt := (r.n + width - 1) / width
	stride := int64(r.words * width * 8)
	type section struct {
		name     string
		off, len int64
	}
	for _, s := range []section{
		{"tiles", r.tilesOff, int64(nt) * stride},
		{"dead", r.deadOff, int64((r.n + 7) / 8)},
		{"gidx", r.gidxOff, int64(r.n+1) * 8},
		{"graphs", r.graphsOff, r.graphsLen},
		{"ids", r.idsOff, int64(r.n) * 4},
	} {
		if s.off < int64(len(Magic)) || s.off > r.trailerOff || s.len < 0 || s.len > r.trailerOff-s.off {
			return nil, fmt.Errorf("corrupt trailer: %s section [%d,+%d) outside file", s.name, s.off, s.len)
		}
	}
	for _, off := range []int64{r.tilesOff, r.gidxOff} {
		if off%8 != 0 {
			return nil, fmt.Errorf("corrupt trailer: misaligned section offset %d", off)
		}
	}
	if r.idsOff%4 > 0 {
		return nil, fmt.Errorf("corrupt trailer: misaligned section offset %d", r.idsOff)
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
	case bytes.HasPrefix(data, []byte("GDIMIDX4")):
		return "v4 binary"
	case bytes.HasPrefix(data, []byte("GDIMIDX5")):
		return "v5 binary"
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
	for _, want := range []uint64{uint64(r.n), uint64(r.meta.BaseN)} {
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

// Block adopts the tile section as the scan kernel's SoA block — on a
// mapped little-endian host this is zero-copy: the returned Block's
// tiles are subslices of the mapping. Its zone map is derived from those
// tiles, never read from the file. The error is always nil.
func (r *Reader) Block() (*vecspace.Block, error) {
	nt := (r.n + width - 1) / width
	return vecspace.BlockFromWords(r.n, r.p, r.aliasU64(r.tilesOff, int64(nt)*int64(r.words*width))), nil
}

// Dead decodes the tombstone bitmap into a heap bitset in Payload.Dead's
// form, and counts its ids. Tombstones are copy-on-write runtime state,
// never served from the mapping; any bit at or past n — which no writer
// sets — is dropped, so ids appended later start live.
func (r *Reader) Dead() ([]uint64, int) {
	b := r.data[r.deadOff : r.deadOff+int64((r.n+7)/8)]
	out := make([]uint64, (r.n+63)/64)
	for i, x := range b {
		out[i/8] |= uint64(x) << (i % 8 * 8)
	}
	if tail := r.n % 64; tail != 0 {
		out[len(out)-1] &= 1<<tail - 1
	}
	count := 0
	for _, w := range out {
		count += bits.OnesCount64(w)
	}
	return out, count
}

// IDs decodes the ids section: the global id of each lane.
func (r *Reader) IDs() []int {
	b := r.data[r.idsOff : r.idsOff+int64(r.n)*4]
	ids := make([]int, r.n)
	for i := range ids {
		ids[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return ids
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

// Postings builds the posting index of the segment's vectors. No query
// path calls it — dimension filters read the block's tiles — and it goes
// with the benchmark change that drops bench's layer probe, its only
// caller (ROADMAP item 3(a)).
func (r *Reader) Postings() (*posting.Index, error) {
	blk, err := r.Block()
	if err != nil {
		return nil, err
	}
	return posting.FromVectors(blk.Unpack(), r.p), nil
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

// Package wal implements the per-collection segmented write-ahead log
// behind graphdim's durable stores. Online mutations (add and remove
// batches) append a binary record — framed with a sequence number and a
// CRC32 — to an append-only segment file and fsync before the write is
// acknowledged, so a process kill at any instant loses at most the
// record whose fsync had not yet returned. Checkpoints (full on-disk
// snapshots taken by the store) truncate the log by deleting every
// segment whose records the snapshot covers; crash recovery replays the
// surviving tail over the last checkpoint.
//
// # On-disk layout
//
// A log is a directory of segment files named seg-<first>.wal, where
// <first> is the zero-padded sequence number of the first record the
// segment holds. Each segment starts with the 8-byte magic "GWALSEG1"
// followed by zero or more records:
//
//	seq      uvarint — 1-based, strictly consecutive across the log
//	type     1 byte (add = 1, remove = 2)
//	len      uvarint — payload length in bytes
//	payload  len bytes (see Record)
//	crc32    IEEE checksum of the seq|type|len|payload bytes, LE
//
// Appends go to the last (active) segment; when it outgrows
// Options.SegmentBytes the log rolls to a fresh segment. Each Append is
// one write and one fsync; a follower's AppendMirror commits a streamed
// batch of records under one write and one fsync. The framing is
// torn-tail tolerant: a record cut mid-write by a crash fails its length
// or checksum on the next Open, which truncates the segment back to the
// last intact record — exactly the prefix whose fsyncs had completed.
// Corruption in any non-final segment is data loss and reported as an
// error rather than skipped. Within the final segment the first torn
// frame necessarily ends recovery: without trusting record contents
// there is no way to tell a torn write from a flipped bit, so — as in
// most write-ahead logs — anything behind it is dropped with it. The
// exposure is bounded by the checkpoint interval.
//
// A frame whose checksum verifies was written whole, so one whose
// payload does not decode — a retired or unknown record type, counts out
// of domain — is not a torn tail, and neither is one whose sequence
// jumps forward past records that are missing. Open and every Stream
// refuse the log by naming it and change no byte, instead of cutting it
// off together with the acknowledged records behind it. A frame whose
// sequence steps back is a stale frame of a batch whose write failed, and
// is cut like a torn tail.
//
// A Log assumes a single owner: one process, one *Log per directory.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// ErrTruncated reports that the records a caller asked to read from —
// Replay or StreamFrom with an `after` below the oldest retained
// segment — have been deleted by a checkpoint. A replica seeing this
// cannot catch up from the log and must re-bootstrap from a snapshot.
var ErrTruncated = errors.New("wal: records truncated by checkpoint")

const (
	segMagic   = "GWALSEG1"
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	segNameLen = len(segPrefix) + 20 + len(segSuffix)

	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 64 << 20

	// maxPayload bounds a record's declared payload length so a corrupt
	// frame cannot force a huge allocation before its checksum is seen.
	maxPayload = 1 << 30

	// scratchPayload bounds the payload buffer a reader keeps for reuse.
	scratchPayload = 1 << 20

	// maxID bounds decoded id values: far above any reachable id space,
	// low enough that id arithmetic cannot overflow int64.
	maxID = 1 << 56
)

// Type identifies a record's kind.
type Type byte

const (
	// TypeAdd is a batch of graphs appended with consecutive ids
	// First..First+len(Graphs)-1.
	TypeAdd Type = 1
	// TypeRemove is a batch of id tombstones.
	TypeRemove Type = 2
)

// errRefused marks a frame whose checksum verifies but whose payload this
// release does not decode (see the package comment).
var errRefused = errors.New("intact but unreadable")

// Record is one logged mutation.
type Record struct {
	// Seq is the record's 1-based sequence number; assigned by Append,
	// populated on replay.
	Seq uint64
	// Type selects which of the remaining fields are meaningful.
	Type Type
	// First is the first global id of a TypeAdd batch.
	First int
	// Graphs holds a TypeAdd batch, aligned with ids First+i.
	Graphs []*graph.Graph
	// IDs holds a TypeRemove batch's tombstoned ids, strictly ascending.
	IDs []int
}

// Options configures Open.
type Options struct {
	// SegmentBytes caps one segment file before the log rolls to a fresh
	// one; zero means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends then survive a process
	// kill only once the OS flushes on its own — meant for tests and
	// benchmarks, not for serving.
	NoSync bool
	// SyncObserver, when non-nil, is called after every completed fsync
	// with its duration and the number of records it committed: 1 for an
	// Append, the mirrored batch's size for an AppendMirror. It runs on
	// the committing goroutine with the log locked, so it must be fast,
	// non-blocking, and must not call back into the Log.
	SyncObserver func(d time.Duration, records int)
	// FailSync injects an fsync failure (a test hook for crash-recovery
	// property tests): when non-nil and returning a non-nil error after a
	// sync, the commit is treated as failed — its frames are cut back off
	// the file and the caller gets the error, exactly as if the fsync
	// itself had failed. Must be safe for concurrent calls.
	FailSync func() error
	// FirstSeq, when > 0, seeds an empty directory so its first record
	// gets this sequence number instead of 1 — a follower bootstrapping
	// from a primary checkpoint at seq N opens its (empty) local log with
	// FirstSeq N+1 so mirrored records keep the primary's numbering. A
	// directory that already holds segments ignores it.
	FirstSeq uint64
}

// Stats is a point-in-time snapshot of a log's counters. The JSON names
// are the wire names stats endpoints report it under (graphdim.WALStats).
type Stats struct {
	// Appends and Syncs count committed records and the fsyncs that
	// committed them. An Append is one record and one fsync; a mirrored
	// batch is many records and one fsync, so Appends/Syncs above 1 is a
	// follower's batching.
	Appends int64 `json:"appends"`
	Syncs   int64 `json:"syncs"`
	// SyncNanos is the cumulative time spent inside fsync, nanoseconds.
	SyncNanos int64 `json:"sync_nanos"`
	// MaxBatch is the most records one fsync has committed (1 on a primary).
	MaxBatch int `json:"max_batch"`
	// LastSeq is the newest record's sequence number (0 = empty log);
	// CheckpointSeq is the highest sequence a Checkpoint has covered.
	LastSeq       uint64 `json:"last_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Retained counts registered replication holds (see Retain), and
	// RetainSeq is the lowest acknowledged sequence among them — the
	// position checkpoint truncation is currently clamped to. RetainSeq
	// is meaningless when Retained is zero. Not part of the wire form:
	// a server reports retention with its replication state.
	Retained  int    `json:"-"`
	RetainSeq uint64 `json:"-"`
}

type segment struct {
	first uint64 // sequence number of the segment's first record
	path  string
	size  int64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized by the log's mutex (see Append).
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	segs      []segment // ascending by first; the last one is active
	f         *os.File  // active segment, positioned at its valid end
	seq       uint64    // last appended sequence number
	ckpt      uint64    // highest checkpointed sequence number
	app       int64
	syncs     int64
	syncNanos int64
	maxBatch  int
	closed    bool
	// commitCh is closed and replaced after every committed append, so
	// streaming readers can block until new records exist (see Commits).
	commitCh chan struct{}
	// holds maps a replica id to the highest sequence it has durably
	// acknowledged; Checkpoint never truncates a segment holding records
	// any hold still needs (see Retain).
	holds map[string]uint64
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if len(name) != segNameLen || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (or creates) the log at dir, recovering from whatever a
// previous process left: it scans the newest segment, truncates any torn
// record off its tail, and positions appends after the last intact
// record. A segment holding a frame that is intact but unreadable is
// refused and left as it is.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, commitCh: make(chan struct{}), holds: make(map[string]uint64)}
	for _, e := range entries {
		first, ok := parseSegName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", dir, err)
		}
		l.segs = append(l.segs, segment{first: first, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	for i := 1; i < len(l.segs); i++ {
		if l.segs[i].first <= l.segs[i-1].first {
			return nil, fmt.Errorf("wal: open %s: duplicate segment %d", dir, l.segs[i].first)
		}
	}
	if len(l.segs) == 0 {
		first := uint64(1)
		if opt.FirstSeq > 0 {
			first = opt.FirstSeq
		}
		if err := l.createSegment(first); err != nil {
			return nil, err
		}
		l.seq = first - 1
		l.ckpt = first - 1
		return l, nil
	}
	// Recover the active (newest) segment: find the last intact record
	// and cut any torn tail behind it.
	active := &l.segs[len(l.segs)-1]
	lastSeq, validEnd, err := scanSegment(active.path, active.first)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	if validEnd < active.size || validEnd < int64(len(segMagic)) {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open %s: truncating torn tail: %w", dir, err)
		}
		if validEnd < int64(len(segMagic)) {
			// Even the header was torn: rewrite it so the segment stays
			// replayable.
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: open %s: %w", dir, err)
			}
			validEnd = int64(len(segMagic))
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open %s: %w", dir, err)
		}
		active.size = validEnd
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l.f = f
	l.seq = lastSeq
	l.ckpt = l.segs[0].first - 1
	return l, nil
}

// scanSegment walks path's records, validating frames and sequence
// continuity from first, and returns the last intact sequence number
// (first-1 if the segment holds none) plus the byte offset just past the
// last intact record. A missing or short magic header counts as an empty
// (torn) segment, and so does anything from a frame whose sequence steps
// back; an intact frame it cannot read, or one whose sequence jumps
// forward, is an error.
func scanSegment(path string, first uint64) (lastSeq uint64, validEnd int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	cr := &crcReader{br: bufio.NewReader(f)}
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil || !bytes.Equal(magic[:], []byte(segMagic)) {
		// Too short to even hold the header, or a foreign file: treat the
		// whole segment as torn. The caller rewrites from offset 0... but
		// the header must survive, so report the header itself as the
		// valid extent only when intact.
		if err == nil {
			return 0, 0, fmt.Errorf("%s: bad segment magic", filepath.Base(path))
		}
		return first - 1, 0, nil
	}
	lastSeq = first - 1
	validEnd = int64(len(segMagic))
	expect := first
	for {
		// Records are only checked here: Replay decodes the ones it needs.
		rec, err := readRecord(cr, math.MaxUint64)
		if errors.Is(err, errRefused) {
			return 0, 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		if err != nil {
			// io.EOF, a short frame, a checksum mismatch: everything past
			// validEnd is a torn tail. (A clean EOF lands here too, with
			// validEnd already at the file's end.)
			return lastSeq, validEnd, nil
		}
		if rec.Seq > expect {
			// An intact frame past a gap: records were lost in between,
			// and cutting here would drop the acknowledged ones behind it.
			return 0, 0, fmt.Errorf("%s: record %d where %d was expected: a gap in the log", filepath.Base(path), rec.Seq, expect)
		}
		if rec.Seq < expect {
			// A stale frame of a batch whose write failed: a torn tail.
			return lastSeq, validEnd, nil
		}
		expect++
		lastSeq = rec.Seq
		validEnd = cr.n
	}
}

// createSegment opens a fresh segment whose first record will be seq,
// writes its header, and makes it the active segment.
func (l *Log) createSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if !l.opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: creating segment: %w", err)
		}
		SyncDir(l.dir)
	}
	l.f = f
	l.segs = append(l.segs, segment{first: first, path: path, size: int64(len(segMagic))})
	return nil
}

// roll starts a fresh segment for seq+1 and only then retires the old
// one — a failed roll (disk full, FD limit) leaves the log appending to
// the old segment, oversized but fully functional, and the next append
// retries.
func (l *Log) roll() error {
	old := l.f
	if err := l.createSegment(l.seq + 1); err != nil {
		return err
	}
	old.Close()
	return nil
}

// Append frames rec, writes it to the active segment, and — unless the
// log was opened with NoSync — fsyncs before returning, so a returned
// sequence number is durable. A record that fails to encode consumes no
// sequence number. On a write or sync error the frame is cut back off
// the file (best-effort; a leftover torn frame is equally harmless, the
// next Open truncates it) and nothing is committed. Concurrent calls are
// safe: l.mu serializes them, one write and one fsync each.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	frame, err := encodeFrame(l.seq+1, rec)
	if err != nil {
		return 0, err
	}
	if err := l.writeFrames(frame, 1); err != nil {
		return 0, err
	}
	return l.seq, nil
}

// writeFrames commits one already framed batch of records records to the
// active segment: write, fsync (honouring NoSync and FailSync), then the
// size/seq bookkeeping and the commit broadcast. Called with l.mu held;
// the frames must carry sequence numbers l.seq+1..l.seq+records. On
// error the batch's bytes are cut back off the file (best-effort) and
// nothing is committed.
func (l *Log) writeFrames(buf []byte, records int) error {
	if l.segs[len(l.segs)-1].size >= l.opt.SegmentBytes {
		// A failed roll is not a failed commit: the old segment is still
		// writable, so grow it past the threshold and let a later append
		// retry the roll. If the disk is truly out, the write below
		// reports it.
		_ = l.roll()
	}
	active := &l.segs[len(l.segs)-1]
	off := active.size
	fail := func(err error) error {
		l.f.Truncate(off)
		l.f.Seek(off, io.SeekStart)
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return fail(fmt.Errorf("wal: append: %w", err))
	}
	if !l.opt.NoSync {
		start := time.Now()
		err := l.f.Sync()
		if err == nil && l.opt.FailSync != nil {
			err = l.opt.FailSync()
		}
		if err != nil {
			return fail(fmt.Errorf("wal: append: sync: %w", err))
		}
		d := time.Since(start)
		l.syncs++
		l.syncNanos += int64(d)
		if l.opt.SyncObserver != nil {
			l.opt.SyncObserver(d, records)
		}
	}
	active.size = off + int64(len(buf))
	l.seq += uint64(records)
	l.app += int64(records)
	if records > l.maxBatch {
		l.maxBatch = records
	}
	// Wake streaming readers: the records just committed are immutable
	// on disk from here on.
	close(l.commitCh)
	l.commitCh = make(chan struct{})
	return nil
}

// AppendMirror appends records that already carry sequence numbers — a
// follower mirroring a primary's log writes the streamed records under
// the primary's numbering, so both logs stay position-compatible. The
// records must continue the local log exactly (first seq == LastSeq+1,
// strictly consecutive); the whole batch commits under one write and one
// fsync, or not at all.
func (l *Log) AppendMirror(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	var buf []byte
	seq := l.seq
	for _, rec := range recs {
		if rec.Seq != seq+1 {
			return fmt.Errorf("wal: mirror append: record %d does not follow %d", rec.Seq, seq)
		}
		frame, err := encodeFrame(rec.Seq, rec)
		if err != nil {
			return err
		}
		seq++
		buf = append(buf, frame...)
	}
	return l.writeFrames(buf, len(recs))
}

// Commits returns a channel closed when a record commits after this
// call — the wait primitive behind long-polling streams. Callers
// re-check state after the channel fires and call Commits again.
func (l *Log) Commits() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitCh
}

// Retain registers (or updates) a replication hold: the replica named id
// has durably acknowledged every record with sequence <= acked, so
// Checkpoint may not delete a segment holding any record after that.
// Holds are in-memory state — a restarted primary forgets them, and a
// replica whose records were truncated while it was away re-bootstraps
// from a snapshot (Replay and StreamFrom report ErrTruncated).
func (l *Log) Retain(id string, acked uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur, ok := l.holds[id]; ok && cur > acked {
		return // acks never move backwards
	}
	l.holds[id] = acked
}

// Unretain drops the replica's hold; its segments become reclaimable by
// the next checkpoint.
func (l *Log) Unretain(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.holds, id)
}

// minHold returns the lowest acknowledged sequence across registered
// holds. Called with l.mu held.
func (l *Log) minHold() (uint64, bool) {
	min, ok := uint64(0), false
	for _, acked := range l.holds {
		if !ok || acked < min {
			min, ok = acked, true
		}
	}
	return min, ok
}

// LastSeq returns the newest committed record's sequence number (0 for
// an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Checkpoint tells the log that every record with sequence <= through is
// covered by a durable snapshot elsewhere: segments that hold only such
// records are deleted. If the active segment is fully covered the log
// rolls first, so steady-state checkpointing keeps reclaiming space.
//
// Registered replication holds (Retain) clamp the truncation — never the
// recorded checkpoint position — so a segment an attached replica has
// not acknowledged survives until its ack arrives, at the price of disk.
func (l *Log) Checkpoint(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if through > l.seq {
		through = l.seq
	}
	if through > l.ckpt {
		l.ckpt = through
	}
	reclaim := through
	if min, ok := l.minHold(); ok && min < reclaim {
		reclaim = min
	}
	active := l.segs[len(l.segs)-1]
	if l.seq >= active.first && reclaim == l.seq {
		// The active segment has records and all of them are reclaimable:
		// roll so the loop below can delete it.
		if err := l.roll(); err != nil {
			return err
		}
	}
	for len(l.segs) > 1 && l.segs[1].first-1 <= reclaim {
		if err := os.Remove(l.segs[0].path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
		l.segs = l.segs[1:]
	}
	if !l.opt.NoSync {
		SyncDir(l.dir)
	}
	return nil
}

// Replay streams every committed record with sequence > after, up to
// the log's last sequence at the call, in order, to fn; fn returning an
// error stops the replay and returns that error. It is a Stream drained
// to that position, so a broken record anywhere is reported as
// corruption (Open has already cut a torn tail off the newest segment),
// and asking for records an earlier checkpoint has already truncated
// (after+1 below the oldest segment's first record) reports ErrTruncated
// rather than silently replaying a partial tail.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	st := l.StreamFrom(after)
	defer st.Close()
	upper := l.LastSeq()
	for {
		rec, ok, err := st.Next(upper)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if !ok {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Appends:       l.app,
		Syncs:         l.syncs,
		SyncNanos:     l.syncNanos,
		MaxBatch:      l.maxBatch,
		LastSeq:       l.seq,
		CheckpointSeq: l.ckpt,
		Segments:      len(l.segs),
		Retained:      len(l.holds),
	}
	if min, ok := l.minHold(); ok {
		st.RetainSeq = min
	}
	for _, sg := range l.segs {
		st.Bytes += sg.size
	}
	return st
}

// Close closes the active segment file. It does not checkpoint: records
// already fsynced stay on disk for the next Open to replay. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f != nil {
		return l.f.Close()
	}
	return nil
}

// SyncDir fsyncs a directory so file creations, deletions, and renames
// inside it survive a crash. Best-effort: some filesystems reject
// directory fsync. Exported because the store layer's checkpoint path
// needs exactly this primitive.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ---- record framing ----

// encodeFrame serializes rec under sequence number seq: header + payload
// + crc32 of everything before the checksum.
func encodeFrame(seq uint64, rec Record) ([]byte, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return nil, err
	}
	var head [2*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(head[:], seq)
	head[n] = byte(rec.Type)
	n++
	n += binary.PutUvarint(head[n:], uint64(len(payload)))
	frame := make([]byte, 0, n+len(payload)+4)
	frame = append(frame, head[:n]...)
	frame = append(frame, payload...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(frame))
	return append(frame, sum[:]...), nil
}

func encodePayload(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(x uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], x)]) }
	switch rec.Type {
	case TypeAdd:
		if rec.First < 0 {
			return nil, fmt.Errorf("wal: add record with negative first id %d", rec.First)
		}
		if len(rec.Graphs) == 0 {
			return nil, fmt.Errorf("wal: add record with no graphs")
		}
		put(uint64(rec.First))
		put(uint64(len(rec.Graphs)))
		for _, g := range rec.Graphs {
			if err := graph.WriteBinary(&buf, g); err != nil {
				return nil, fmt.Errorf("wal: encoding graph: %w", err)
			}
		}
	case TypeRemove:
		if len(rec.IDs) == 0 {
			return nil, fmt.Errorf("wal: remove record with no ids")
		}
		put(uint64(len(rec.IDs)))
		if err := putAscending(put, rec.IDs); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return buf.Bytes(), nil
}

func putAscending(put func(uint64), ids []int) error {
	prev := -1
	for _, id := range ids {
		if id <= prev {
			return fmt.Errorf("wal: ids not strictly ascending at %d", id)
		}
		if id < 0 {
			return fmt.Errorf("wal: negative id %d", id)
		}
		put(uint64(id))
		prev = id
	}
	return nil
}

// crcReader counts and checksums the bytes the decoder consumes. The
// checksum restarts per record (readRecord resets it), so the trailing
// checksum bytes of one record hashing into the next record's sum does
// not matter. It also holds readRecord's scratch: a payload buffer of
// at most scratchPayload bytes, reused record to record (a decoded record
// keeps no reference to it), and the graph decoder that checks payloads
// it is not asked to keep.
type crcReader struct {
	br      *bufio.Reader
	sum     uint32
	n       int64
	payload []byte
	check   graph.Decoder
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.sum = crc32.Update(c.sum, crc32.IEEETable, []byte{b})
		c.n++
	}
	return b, err
}

// readRecord decodes one frame. A clean end of input (EOF before the
// first byte) returns io.EOF. A frame that fails before its checksum
// verifies — truncation, an oversized length, sequence 0, a checksum
// mismatch — returns an error the caller treats as a torn tail or
// corruption depending on position; a verified frame whose payload does
// not decode returns an error wrapping errRefused, which no caller
// truncates. The graphs of a record whose sequence is below keepFrom are
// checked, not kept: the record is refused exactly as a kept one would
// be, but it comes back without its graphs.
func readRecord(cr *crcReader, keepFrom uint64) (Record, error) {
	cr.sum = 0
	seq, err := binary.ReadUvarint(cr)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("reading seq: %w", err)
	}
	if seq == 0 {
		return Record{}, fmt.Errorf("record with sequence 0")
	}
	t, err := cr.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("reading type: %w", graph.NoEOF(err))
	}
	plen, err := binary.ReadUvarint(cr)
	if err != nil {
		return Record{}, fmt.Errorf("reading length: %w", graph.NoEOF(err))
	}
	if plen > maxPayload {
		return Record{}, fmt.Errorf("payload length %d exceeds limit", plen)
	}
	payload := cr.payload[:0]
	if uint64(cap(payload)) < plen {
		payload = make([]byte, plen)
		// A larger payload is garbage after its record, so a
		// long-lived reader never pins one large batch's buffer.
		if plen <= scratchPayload {
			cr.payload = payload
		}
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(cr, payload); err != nil {
		return Record{}, fmt.Errorf("reading payload: %w", graph.NoEOF(err))
	}
	want := cr.sum
	var sum [4]byte
	if _, err := io.ReadFull(cr, sum[:]); err != nil {
		return Record{}, fmt.Errorf("reading checksum: %w", graph.NoEOF(err))
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return Record{}, fmt.Errorf("record %d: checksum mismatch (file %08x, computed %08x)", seq, got, want)
	}
	rec := Record{Seq: seq, Type: Type(t)}
	var check *graph.Decoder
	if seq < keepFrom {
		check = &cr.check
	}
	if err := decodePayload(&rec, payload, check); err != nil {
		return Record{}, fmt.Errorf("record %d: %w: %w", seq, errRefused, err)
	}
	return rec, nil
}

// decodePayload decodes payload into rec. With a non-nil check it only
// checks an Add's graphs: they are decoded into check's scratch and not
// kept.
func decodePayload(rec *Record, payload []byte, check *graph.Decoder) error {
	br := bytes.NewReader(payload)
	// Counts size allocations and are bounded tightly; ids are values —
	// a production store outgrows 1<<27 ids long before it outgrows the
	// codec — so they get only the don't-overflow-int bound.
	bounded := func(what string, limit uint64) (int, error) {
		x, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", what, graph.NoEOF(err))
		}
		if x > limit {
			return 0, fmt.Errorf("%s %d exceeds limit %d", what, x, limit)
		}
		return int(x), nil
	}
	getID := func(what string) (int, error) { return bounded(what, maxID) }
	// getSome reads a count the encoder never writes as zero.
	getSome := func(what string) (int, error) {
		x, err := bounded(what, graph.MaxBinaryElems)
		if err == nil && x == 0 {
			err = fmt.Errorf("%s is zero", what)
		}
		return x, err
	}
	var err error
	switch rec.Type {
	case TypeAdd:
		if rec.First, err = getID("first id"); err != nil {
			return err
		}
		count, err := getSome("graph count")
		if err != nil {
			return err
		}
		if check == nil {
			rec.Graphs = make([]*graph.Graph, 0, min(count, 1<<16))
		}
		for i := 0; i < count; i++ {
			if check != nil {
				err = check.Check(br)
			} else {
				var g *graph.Graph
				g, err = graph.ReadBinary(br)
				rec.Graphs = append(rec.Graphs, g)
			}
			if err != nil {
				return fmt.Errorf("graph %d: %w", i, err)
			}
		}
	case TypeRemove:
		count, err := getSome("id count")
		if err != nil {
			return err
		}
		if rec.IDs, err = getAscending(getID, count); err != nil {
			return err
		}
	case 3:
		return errors.New("record type 3 is a partial-add amendment, which only older releases wrote and this release does not read; open the store once with such a release and checkpoint")
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	if br.Len() != 0 {
		return fmt.Errorf("%d trailing payload bytes", br.Len())
	}
	return nil
}

// getAscending decodes count strictly ascending ids.
func getAscending(get func(string) (int, error), count int) ([]int, error) {
	ids := make([]int, 0, min(count, 1<<16))
	prev := -1
	for i := 0; i < count; i++ {
		id, err := get("id")
		if err != nil {
			return nil, err
		}
		if id <= prev {
			return nil, fmt.Errorf("ids not strictly ascending at %d", id)
		}
		ids = append(ids, id)
		prev = id
	}
	return ids, nil
}

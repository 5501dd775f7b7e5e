package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Stream is the one reader of a log's records: it delivers committed
// records in sequence order, follows segment rolls, and can resume past
// the current tail as new records commit, which is what a replication
// endpoint tails (Replay is a Stream drained to the tail it finds). A
// Stream never observes uncommitted
// bytes: reads are bounded by the committed segment sizes the log
// publishes after each fsynced group, so a torn or aborted group can
// never be streamed (its bytes are cut back before the size advances).
//
// A Stream is not safe for concurrent use; one goroutine drives it.
// Reading races checkpoint truncation benignly: an already open segment
// keeps serving after its unlink (the fd pins it), and a segment deleted
// before the stream reached it reports ErrTruncated — the reader must
// re-bootstrap from a snapshot. Replication holds (Retain) exist to keep
// that from happening to an attached follower.
type Stream struct {
	l    *Log
	next uint64 // next sequence number to deliver

	f        *os.File
	lim      *io.LimitedReader
	cr       *crcReader
	segFirst uint64 // first seq of the open segment
	fetched  int64  // committed bytes of the open segment made visible
	expect   uint64 // next sequence the decoder should see in this segment
	// exhausted marks a segment fully consumed at its committed size
	// while a wanted record remains: reopening it would loop forever, so
	// open reports corruption instead if no later segment takes over.
	exhausted uint64
}

// StreamFrom returns a stream positioned to deliver the record after
// `after` next.
func (l *Log) StreamFrom(after uint64) *Stream {
	return &Stream{l: l, next: after + 1}
}

// streamSnapshot captures the segment list (with committed sizes) and
// the committed tail position.
func (l *Log) streamSnapshot() (segs []segment, committed uint64, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]segment(nil), l.segs...), l.seq, l.closed
}

// Next returns the next committed record with sequence <= upper. It
// never blocks: when no such record exists yet, ok is false — callers
// long-poll by waiting on Log.Commits (plus whatever signals advance
// their upper bound) and retrying. The error is ErrTruncated when the
// stream's position has been checkpointed away, and a corruption report
// if committed records fail to decode.
func (s *Stream) Next(upper uint64) (rec Record, ok bool, err error) {
	for {
		segs, committed, closed := s.l.streamSnapshot()
		if closed {
			return Record{}, false, fmt.Errorf("wal: stream: log is closed")
		}
		if committed > upper {
			committed = upper
		}
		if s.next > committed {
			return Record{}, false, nil
		}
		if s.f == nil {
			if err := s.open(segs); err != nil {
				return Record{}, false, err
			}
		}
		// Top up the read bound with bytes committed since the segment
		// was opened (only the active segment grows).
		for i := range segs {
			if segs[i].first == s.segFirst && segs[i].size > s.fetched {
				s.lim.N += segs[i].size - s.fetched
				s.fetched = segs[i].size
			}
		}
		// Records before the resume point are only checked.
		rec, err := readRecord(s.cr, s.next)
		if err == io.EOF {
			// Clean end of this segment's committed bytes while a wanted
			// record is committed: the record lives in the next segment.
			s.closeSegment()
			s.exhausted = s.segFirst
			continue
		}
		if err != nil {
			return Record{}, false, fmt.Errorf("wal: stream: %s: %w", segName(s.segFirst), err)
		}
		if rec.Seq != s.expect {
			return Record{}, false, fmt.Errorf("wal: stream: %s: record %d where %d was expected",
				segName(s.segFirst), rec.Seq, s.expect)
		}
		s.expect++
		if rec.Seq < s.next {
			continue // skipping toward the resume point
		}
		s.next = rec.Seq + 1
		return rec, true, nil
	}
}

// open positions the stream at the segment holding s.next.
func (s *Stream) open(segs []segment) error {
	idx := -1
	for i := range segs {
		if segs[i].first <= s.next {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("wal: stream at %d, oldest retained record is %d: %w",
			s.next, segs[0].first, ErrTruncated)
	}
	sg := segs[idx]
	if sg.first == s.exhausted {
		return fmt.Errorf("wal: stream: %s ends before committed record %d", segName(sg.first), s.next)
	}
	f, err := os.Open(sg.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Truncated between the snapshot and the open.
			return fmt.Errorf("wal: stream at %d: segment deleted: %w", s.next, ErrTruncated)
		}
		return fmt.Errorf("wal: stream: %w", err)
	}
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || !bytes.Equal(magic[:], []byte(segMagic)) {
		f.Close()
		return fmt.Errorf("wal: stream: %s: bad segment header", filepath.Base(sg.path))
	}
	s.f = f
	s.segFirst = sg.first
	s.fetched = sg.size
	s.expect = sg.first
	s.exhausted = 0
	s.lim = &io.LimitedReader{R: f, N: sg.size - int64(len(segMagic))}
	s.cr = &crcReader{br: bufio.NewReader(s.lim)}
	return nil
}

func (s *Stream) closeSegment() {
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.lim, s.cr = nil, nil, nil
}

// Close releases the stream's open segment file. The stream stays
// usable afterwards (Next reopens at its position); Close exists so
// abandoned streams do not pin unlinked segments.
func (s *Stream) Close() error {
	s.closeSegment()
	return nil
}

// ---- exported frame codec (replication wire format) ----

// EncodeFrame serializes rec — which must carry its sequence number —
// in the exact on-disk segment framing. The replication stream ships
// records in this encoding, so a follower persists and replays bytes
// identical to the primary's log.
func EncodeFrame(rec Record) ([]byte, error) {
	if rec.Seq == 0 {
		return nil, fmt.Errorf("wal: encode frame: record has no sequence number")
	}
	return encodeFrame(rec.Seq, rec)
}

// FrameReader decodes on-disk record frames from an arbitrary byte
// stream — the follower side of the replication wire format. It also
// exposes the raw byte/uvarint reads the stream envelope around the
// frames needs, so envelope and frames share one buffered reader.
type FrameReader struct {
	cr *crcReader
}

// NewFrameReader wraps r. The reader buffers internally; nothing else
// should read from r afterwards.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{cr: &crcReader{br: bufio.NewReader(r)}}
}

// Next decodes one record frame. A clean end of input before the first
// byte returns io.EOF; anything else that fails mid-frame is an error.
func (fr *FrameReader) Next() (Record, error) {
	return readRecord(fr.cr, 0)
}

// ReadByte reads one raw byte (an envelope tag).
func (fr *FrameReader) ReadByte() (byte, error) {
	return fr.cr.ReadByte()
}

// Uvarint reads one raw uvarint (an envelope field).
func (fr *FrameReader) Uvarint() (uint64, error) {
	return binary.ReadUvarint(fr.cr)
}

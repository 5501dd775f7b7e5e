// Package repl implements WAL-shipped replication between gserve
// processes: the wire protocol a primary's streaming WAL-tail endpoint
// speaks, the tailing client a follower runs per collection, and the
// small durable state file that gives a follower a stable identity and
// resume position across restarts.
//
// # Protocol
//
// A tail response (GET /v1/replication/{collection}/wal?after=N) is an
// unbounded chunked stream of envelopes, each a one-byte tag plus a
// payload:
//
//	0x01  record     — one WAL record in the exact on-disk segment
//	                   framing (seq uvarint, type, len, payload, crc32),
//	                   so the follower persists bytes position- and
//	                   content-compatible with the primary's log
//	0x02  heartbeat  — uvarint: the primary's applied sequence. Sent
//	                   whenever the stream catches up and then
//	                   periodically; the follower applies what it has
//	                   buffered and acks its position
//	0x03  truncated  — the requested position predates the oldest
//	                   retained segment; the follower must re-bootstrap
//	                   from a snapshot. The stream ends after this tag
//
// The primary only streams records at or below its applied watermark,
// so a follower never shows a write before the primary does. A follower
// applies every record as it arrives. A frame it cannot read — the
// partial-add amendment (type 3) that older primaries wrote, or an
// unknown type — stops the stream: the follower applies the records
// before it, and its tailer reports the named refusal as last_error and
// retries from there, never past it.
package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// Envelope tags of the tail stream.
const (
	tagRecord    = 0x01
	tagHeartbeat = 0x02
	tagTruncated = 0x03
)

// ErrNeedsBootstrap reports that the primary no longer retains the
// records the follower needs: tailing cannot continue and the follower
// must fetch a fresh snapshot before reconnecting.
var ErrNeedsBootstrap = errors.New("repl: position truncated on primary; snapshot bootstrap required")

// WriteRecord writes one record envelope.
func WriteRecord(w io.Writer, rec wal.Record) error {
	frame, err := wal.EncodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte{tagRecord}); err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// WriteHeartbeat writes a heartbeat envelope carrying the sender's
// applied sequence.
func WriteHeartbeat(w io.Writer, applied uint64) error {
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = tagHeartbeat
	n := binary.PutUvarint(buf[1:], applied)
	_, err := w.Write(buf[:1+n])
	return err
}

// WriteTruncated writes the stream-ending truncation signal.
func WriteTruncated(w io.Writer) error {
	_, err := w.Write([]byte{tagTruncated})
	return err
}

// Event is one decoded envelope.
type Event struct {
	// Record is set for record envelopes (Seq > 0 exactly then).
	Record wal.Record
	// Heartbeat is true for heartbeat envelopes; Applied carries the
	// sender's applied sequence.
	Heartbeat bool
	Applied   uint64
	// Truncated is true for the truncation signal.
	Truncated bool
}

// StreamReader decodes a tail stream's envelopes.
type StreamReader struct {
	fr *wal.FrameReader
}

// NewStreamReader wraps the response body; nothing else may read it.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{fr: wal.NewFrameReader(r)}
}

// Next decodes one envelope. io.EOF reports a clean end of stream (the
// sender closed between envelopes); everything else mid-envelope is an
// error.
func (sr *StreamReader) Next() (Event, error) {
	tag, err := sr.fr.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("repl: reading envelope: %w", err)
	}
	switch tag {
	case tagRecord:
		rec, err := sr.fr.Next()
		if err != nil {
			return Event{}, fmt.Errorf("repl: reading record: %w", err)
		}
		return Event{Record: rec}, nil
	case tagHeartbeat:
		applied, err := sr.fr.Uvarint()
		if err != nil {
			return Event{}, fmt.Errorf("repl: reading heartbeat: %w", err)
		}
		return Event{Heartbeat: true, Applied: applied}, nil
	case tagTruncated:
		return Event{Truncated: true}, nil
	default:
		return Event{}, fmt.Errorf("repl: unknown envelope tag 0x%02x", tag)
	}
}

// State is the follower's durable replication identity: a stable id
// the primary keys retention holds on. The resume position is not here:
// it is the follower's own WAL and manifest. Files written by releases
// that also stored an acked_seq still load; the field is ignored.
type State struct {
	FollowerID string `json:"follower_id"`
}

// LoadState reads the state file; a missing file returns a zero State
// and no error.
func LoadState(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return State{}, nil
		}
		return State{}, fmt.Errorf("repl: reading state: %w", err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return State{}, fmt.Errorf("repl: decoding state %s: %w", path, err)
	}
	return st, nil
}

// Save writes the state atomically and durably: a temp file, fsynced,
// renamed over path, then the directory fsynced. A crash after Save
// returns cannot lose the id — a follower that minted a new one would
// leave the primary's hold for the old id pinning log segments until
// the primary restarts.
func (st State) Save(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("repl: encoding state: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repl: writing state: %w", err)
	}
	wal.SyncDir(filepath.Dir(path))
	return nil
}

package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// testGraph builds a small distinguishable graph: a path of n vertices
// labeled base, base+1, ...
func testGraph(n int, base int) *graph.Graph {
	g := graph.New(0)
	for v := 0; v < n; v++ {
		g.AddVertex(graph.Label(base + v))
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, graph.Label(base))
	}
	return g
}

func mustAppend(t *testing.T, l *Log, rec Record) uint64 {
	t.Helper()
	seq, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append(%v): %v", rec.Type, err)
	}
	return seq
}

func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(after, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay(after=%d): %v", after, err)
	}
	return out
}

func sampleRecords() []Record {
	return []Record{
		{Type: TypeAdd, First: 0, Graphs: []*graph.Graph{testGraph(3, 1), testGraph(4, 7)}},
		{Type: TypeRemove, IDs: []int{1}},
		{Type: TypeAdd, First: 2, Graphs: []*graph.Graph{testGraph(2, 3)}},
		{Type: TypeRemove, IDs: []int{0, 2}},
	}
}

// assertRecords compares replayed records against the appended ones,
// graphs by their canonical text form.
func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.First != w.First || !reflect.DeepEqual(g.IDs, w.IDs) {
			t.Fatalf("record %d: got {type %d first %d ids %v}, want {type %d first %d ids %v}",
				i, g.Type, g.First, g.IDs, w.Type, w.First, w.IDs)
		}
		if len(g.Graphs) != len(w.Graphs) {
			t.Fatalf("record %d: %d graphs, want %d", i, len(g.Graphs), len(w.Graphs))
		}
		for j := range w.Graphs {
			if g.Graphs[j].String() != w.Graphs[j].String() {
				t.Fatalf("record %d graph %d:\ngot  %s\nwant %s", i, j, g.Graphs[j], w.Graphs[j])
			}
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for i, rec := range want {
		if seq := mustAppend(t, l, rec); seq != uint64(i+1) {
			t.Fatalf("record %d got seq %d", i, seq)
		}
	}
	assertRecords(t, collect(t, l, 0), want)
	assertRecords(t, collect(t, l, 2), want[2:])
	if st := l.Stats(); st.Appends != int64(len(want)) || st.LastSeq != uint64(len(want)) || st.Syncs != st.Appends {
		t.Fatalf("stats after append: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends continue the sequence.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != uint64(len(want)) {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), len(want))
	}
	assertRecords(t, collect(t, l2, 0), want)
	extra := Record{Type: TypeRemove, IDs: []int{5}}
	if seq := mustAppend(t, l2, extra); seq != uint64(len(want)+1) {
		t.Fatalf("append after reopen got seq %d", seq)
	}
	assertRecords(t, collect(t, l2, 0), append(append([]Record(nil), want...), extra))
}

// activeSegment returns the newest segment file in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, newest)
}

func TestTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"truncated-mid-record", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x17, 0x99, 0x01, 0xfe, 0x03}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := sampleRecords()
			for _, rec := range want {
				mustAppend(t, l, rec)
			}
			l.Close()
			tc.tear(t, activeSegment(t, dir))

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			// truncated-mid-record loses the final record (its fsync "never
			// returned"); garbage after the final record loses nothing.
			wantLen := len(want)
			if tc.name == "truncated-mid-record" {
				wantLen--
			}
			if l2.LastSeq() != uint64(wantLen) {
				t.Fatalf("LastSeq after tear = %d, want %d", l2.LastSeq(), wantLen)
			}
			assertRecords(t, collect(t, l2, 0), want[:wantLen])
			// The log must keep accepting appends after recovery.
			mustAppend(t, l2, Record{Type: TypeRemove, IDs: []int{9}})
			got := collect(t, l2, 0)
			if len(got) != wantLen+1 || got[len(got)-1].IDs[0] != 9 {
				t.Fatalf("append after recovery: got %d records", len(got))
			}
		})
	}
}

func TestTornHeaderRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash right after segment creation: only half the magic
	// made it out.
	path := activeSegment(t, dir)
	if err := os.WriteFile(path, []byte(segMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	mustAppend(t, l2, Record{Type: TypeRemove, IDs: []int{1}})
	if got := collect(t, l2, 0); len(got) != 1 {
		t.Fatalf("got %d records after header recovery", len(got))
	}
}

func TestSegmentRollAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every couple of records rolls a new file.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		rec := Record{Type: TypeRemove, IDs: []int{i}}
		want = append(want, rec)
		mustAppend(t, l, rec)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments at 64-byte roll threshold, got %d", st.Segments)
	}
	assertRecords(t, collect(t, l, 0), want)

	// Checkpoint through the middle: early segments go away, every record
	// after the checkpoint stays replayable.
	if err := l.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Segments >= st.Segments {
		t.Fatalf("checkpoint(10) kept all %d segments", st2.Segments)
	}
	if st2.CheckpointSeq != 10 {
		t.Fatalf("CheckpointSeq = %d, want 10", st2.CheckpointSeq)
	}
	assertRecords(t, collect(t, l, 10), want[10:])

	// Checkpoint through everything: the active segment rolls so the log
	// shrinks to one empty segment.
	if err := l.Checkpoint(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if st3 := l.Stats(); st3.Segments != 1 {
		t.Fatalf("full checkpoint left %d segments", st3.Segments)
	}
	if got := collect(t, l, l.Stats().CheckpointSeq); len(got) != 0 {
		t.Fatalf("replay after full checkpoint returned %d records", len(got))
	}

	// The sequence keeps climbing across the checkpoint, including after
	// a reopen.
	seqBefore := l.LastSeq()
	mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{99}})
	l.Close()
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != seqBefore+1 {
		t.Fatalf("LastSeq after reopen = %d, want %d", l2.LastSeq(), seqBefore+1)
	}
	got := collect(t, l2, seqBefore)
	if len(got) != 1 || got[0].IDs[0] != 99 {
		t.Fatalf("post-checkpoint record lost: %v", got)
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{i}})
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("need several segments, got %d", l.Stats().Segments)
	}
	l.Close()

	// Flip a byte in the FIRST segment: that is data loss in the middle
	// of the log, which replay must refuse to paper over.
	entries, _ := os.ReadDir(dir)
	firstSeg := ""
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok && (firstSeg == "" || e.Name() < firstSeg) {
			firstSeg = e.Name()
		}
	}
	path := filepath.Join(dir, firstSeg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay over mid-log corruption succeeded; want an error")
	} else if !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// rawFrame frames payload under seq and typ exactly as the log does,
// checksum included, whatever the type — a record no encoder writes.
func rawFrame(seq uint64, typ byte, payload []byte) []byte {
	frame := binary.AppendUvarint(nil, seq)
	frame = append(frame, typ)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

// TestOpenRefusesIntactUnreadableRecord: a frame whose checksum verifies
// was written whole, so a payload this release cannot decode is no torn
// tail. Open refuses the log by naming the record, and leaves the
// segment — and the acknowledged record behind the frame —
// byte for byte as it was.
func TestOpenRefusesIntactUnreadableRecord(t *testing.T) {
	add := func(seq uint64) []byte {
		frame, err := EncodeFrame(Record{Seq: seq, Type: TypeAdd, First: int(seq), Graphs: []*graph.Graph{testGraph(2, int(seq))}})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		// An older release's partial-add amendment: first 2, a batch of
		// 1, one applied id, id 2.
		{"amendment", 3, []byte{2, 1, 1, 2}, "record type 3 is a partial-add amendment"},
		{"unknown type", 42, []byte{1}, "unknown record type 42"},
		{"remove with no ids", byte(TypeRemove), []byte{0}, "id count is zero"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := append([]byte(segMagic), add(1)...)
			seg = append(seg, rawFrame(2, tc.typ, tc.payload)...)
			seg = append(seg, add(3)...)
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			before := sha256.Sum256(seg)
			l, err := Open(dir, Options{})
			if err == nil {
				l.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open = %v, want a refusal of record 2 saying %q", err, tc.want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(after) != before {
				t.Fatalf("the refused segment changed: %d bytes, was %d", len(after), len(seg))
			}
			// A stream meets the frame as mid-log corruption.
			fr := NewFrameReader(bytes.NewReader(seg[len(segMagic):]))
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
			if _, err := fr.Next(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FrameReader.Next = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestOpenRefusesRepeatedEdgeRecord: Open checks the graphs of the
// records it scans without keeping them, and that check must refuse what
// Replay's decode refuses. An intact Add frame whose graph repeats an
// edge — with its endpoints reversed, or under a second label — is refused by
// name, and the segment is left byte for byte as it was.
func TestOpenRefusesRepeatedEdgeRecord(t *testing.T) {
	for name, edges := range map[string][]byte{
		"reversed endpoints": {0, 1, 0, 1, 0, 0},
		"ascending label":    {0, 1, 2, 0, 1, 4},
	} {
		t.Run(name, func(t *testing.T) {
			// first id 2, one graph: two vertices, two edges.
			payload := append([]byte{2, 1, 2, 0, 0, 2}, edges...)
			seg := append([]byte(segMagic), rawFrame(1, byte(TypeAdd), testAddPayload(t))...)
			seg = append(seg, rawFrame(2, byte(TypeAdd), payload)...)
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err == nil {
				l.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "duplicate edge {") {
				t.Fatalf("open = %v, want a refusal of record 2 naming the duplicate edge", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, seg) {
				t.Fatalf("the refused segment changed: %d bytes, was %d", len(after), len(seg))
			}
		})
	}
}

// testAddPayload is the payload of a valid Add record of one graph.
func testAddPayload(t *testing.T) []byte {
	t.Helper()
	frame, err := EncodeFrame(Record{Seq: 1, Type: TypeAdd, First: 1, Graphs: []*graph.Graph{testGraph(3, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	// Skip the frame header (seq, type, length) and the trailing CRC.
	plen, n := binary.Uvarint(frame[2:])
	return frame[2+n : 2+n+int(plen)]
}

// TestOpenRefusesForwardGap: an intact frame whose sequence jumps forward
// (records 1, 3, 4) means record 2 is missing, not that the tail is torn.
// Open refuses the log naming the expected and the found sequence, and
// leaves the segment byte for byte as it was. An intact
// frame that steps back — a stale frame of a batch whose write failed —
// is still cut like a torn tail, back to the records before it.
func TestOpenRefusesForwardGap(t *testing.T) {
	rec := func(seq uint64) Record {
		return Record{Seq: seq, Type: TypeAdd, First: int(seq), Graphs: []*graph.Graph{testGraph(2, int(seq))}}
	}
	frames := func(seqs ...uint64) []byte {
		seg := []byte(segMagic)
		for _, seq := range seqs {
			frame, err := EncodeFrame(rec(seq))
			if err != nil {
				t.Fatal(err)
			}
			seg = append(seg, frame...)
		}
		return seg
	}

	t.Run("forward gap", func(t *testing.T) {
		dir := t.TempDir()
		seg := frames(1, 3, 4)
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		before := sha256.Sum256(seg)
		l, err := Open(dir, Options{})
		if err == nil {
			l.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "record 3 where 2 was expected") {
			t.Fatalf("Open = %v, want a refusal naming record 3 where 2 was expected", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(after) != before {
			t.Fatalf("Open changed the refused segment: %d bytes, was %d", len(after), len(seg))
		}
	})

	t.Run("backward step", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, frames(1, 2, 3, 2, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.LastSeq(); got != 3 {
			t.Fatalf("LastSeq after the cut = %d, want 3", got)
		}
		assertRecords(t, collect(t, l, 0), []Record{rec(1), rec(2), rec(3)})
		l.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := frames(1, 2, 3); !bytes.Equal(after, want) {
			t.Fatalf("segment is %d bytes after the cut, want the %d-byte intact prefix", len(after), len(want))
		}
	})
}

func TestEncodeValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range []Record{
		{Type: TypeAdd, First: -1, Graphs: []*graph.Graph{testGraph(2, 0)}},
		{Type: TypeAdd, First: 0},
		{Type: TypeRemove},
		{Type: TypeRemove, IDs: []int{3, 3}},
		{Type: TypeRemove, IDs: []int{5, 2}},
		{Type: Type(3), First: 2, IDs: []int{2}},
		{Type: Type(42)},
	} {
		if _, err := l.Append(rec); err == nil {
			t.Errorf("Append(%+v) succeeded; want validation error", rec)
		}
	}
	if l.LastSeq() != 0 {
		t.Fatalf("rejected records moved the sequence to %d", l.LastSeq())
	}
}

func TestReplayAfterSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 30; i++ {
		mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{i}})
	}
	for _, after := range []uint64{0, 1, 7, 15, 29, 30, 31} {
		got := collect(t, l, after)
		wantLen := 0
		if after < 30 {
			wantLen = int(30 - after)
		}
		if len(got) != wantLen {
			t.Fatalf("Replay(after=%d) returned %d records, want %d", after, len(got), wantLen)
		}
		if wantLen > 0 && got[0].Seq != after+1 {
			t.Fatalf("Replay(after=%d) starts at seq %d", after, got[0].Seq)
		}
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{1}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(Record{Type: TypeRemove, IDs: []int{2}}); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Checkpoint(1); err == nil {
		t.Fatal("Checkpoint on closed log succeeded")
	}
	if err := l.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay on closed log succeeded")
	}
}

// TestBitFlipRecovery flips every byte of a single-segment log, one at a
// time, and requires Open to recover a clean prefix of the original
// records: corruption may cost the tail, never produce garbage records
// or a failed open.
func TestBitFlipRecovery(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		mustAppend(t, l, rec)
	}
	l.Close()
	data, err := os.ReadFile(activeSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}

	for off := len(segMagic); off < len(data); off++ {
		dir := t.TempDir()
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x5b
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("offset %d: Open over bit flip failed: %v", off, err)
		}
		got := collect(t, l2, 0)
		if len(got) > len(want) {
			t.Fatalf("offset %d: %d records from a %d-record log", off, len(got), len(want))
		}
		assertRecords(t, got, want[:len(got)])
		// Recovery must leave an appendable log.
		if _, err := l2.Append(Record{Type: TypeRemove, IDs: []int{123}}); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		l2.Close()
	}
}

// TestForeignFilesIgnored: Open must skip files that are not segments
// and directories that merely look like them.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-zz.wal"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, segName(7)), 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{1}})
	if got := collect(t, l, 0); len(got) != 1 {
		t.Fatalf("got %d records", len(got))
	}
}

// TestCheckpointClampsBeyondLastSeq: a checkpoint request past the end
// of the log covers exactly the log.
func TestCheckpointClampsBeyondLastSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, Record{Type: TypeRemove, IDs: []int{1}})
	if err := l.Checkpoint(999); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.CheckpointSeq != 1 || st.Segments != 1 {
		t.Fatalf("stats after clamped checkpoint: %+v", st)
	}
}

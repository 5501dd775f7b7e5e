package repl

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// FuzzStreamReader feeds arbitrary bytes to the follower's envelope
// parser. It must never panic, and every record it decodes must survive
// a round trip through the wire format unchanged: wal.EncodeFrame, then
// a fresh decode, yields a deeply equal record. So a frame no encoder
// writes, however well checksummed, must be refused.
func FuzzStreamReader(f *testing.F) {
	recs := []wal.Record{
		{Seq: 1, Type: wal.TypeAdd, First: 4, Graphs: []*graph.Graph{testGraph(3, 1), testGraph(1, 7)}},
		{Seq: 2, Type: wal.TypeAdd, First: 6, Graphs: []*graph.Graph{testGraph(2, 4)}},
		{Seq: 3, Type: wal.TypeRemove, IDs: []int{5}},
		{Seq: 4, Type: wal.TypeRemove, IDs: []int{0, 5, 9}},
	}
	var stream bytes.Buffer
	for _, rec := range recs {
		var one bytes.Buffer
		if err := WriteRecord(&one, rec); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
		// Cut mid-envelope: a torn stream.
		f.Add(one.Bytes()[:one.Len()/2])
		stream.Write(one.Bytes())
	}
	if err := WriteHeartbeat(&stream, 4); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(stream.Bytes()))
	if err := WriteTruncated(&stream); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	f.Add([]byte{tagHeartbeat})
	f.Add([]byte{tagRecord})
	// Well-checksummed frames no encoder writes: sequence 0, an add of no
	// graphs, a remove of no ids, and the partial-add amendments (type 3)
	// older releases wrote — one partial, one voided, one of an empty
	// batch.
	for _, fr := range []struct {
		seq     uint64
		typ     wal.Type
		payload []byte
	}{
		{0, wal.TypeRemove, []byte{1, 3}},
		{1, wal.TypeAdd, []byte{4, 0}},
		{1, wal.TypeRemove, []byte{0}},
		{2, 3, []byte{4, 2, 1, 5}},
		{3, 3, []byte{6, 1, 0}},
		{1, 3, []byte{4, 0, 0}},
	} {
		b := binary.AppendUvarint([]byte{tagRecord}, fr.seq)
		b = append(b, byte(fr.typ))
		b = append(binary.AppendUvarint(b, uint64(len(fr.payload))), fr.payload...)
		f.Add(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[1:])))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bytes.NewReader(data))
		for {
			ev, err := sr.Next()
			if err != nil {
				return
			}
			if ev.Heartbeat || ev.Truncated {
				continue
			}
			frame, err := wal.EncodeFrame(ev.Record)
			if err != nil {
				t.Fatalf("decoded %+v, which does not encode: %v", ev.Record, err)
			}
			back, err := wal.NewFrameReader(bytes.NewReader(frame)).Next()
			if err != nil {
				t.Fatalf("re-encoded %+v does not decode: %v", ev.Record, err)
			}
			// Encoding sorts a graph's edge list lazily; encode back too so
			// both records carry the same sorted flag.
			if again, err := wal.EncodeFrame(back); err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("re-decoded %+v encodes differently (%v)", back, err)
			}
			if !reflect.DeepEqual(back, ev.Record) {
				t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, ev.Record)
			}
		}
	})
}

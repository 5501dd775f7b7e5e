package wal

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

func benchGraphs(n int) []*graph.Graph {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = testGraphB(12, i)
	}
	return gs
}

func testGraphB(n, base int) *graph.Graph {
	g := graph.New(0)
	for v := 0; v < n; v++ {
		g.AddVertex(graph.Label((base + v) % 7))
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, graph.Label(base%3))
	}
	return g
}

// BenchmarkWALAppend measures one committed add-batch append — the
// latency the WAL puts on the write path. The sync variant pays the
// fsync a durable commit costs; nosync isolates the framing + write.
func BenchmarkWALAppend(b *testing.B) {
	batch := benchGraphs(8)
	for _, mode := range []struct {
		name   string
		noSync bool
	}{{"sync", false}, {"nosync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{NoSync: mode.noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(Record{Type: TypeAdd, First: i * len(batch), Graphs: batch}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoverReplay measures Open (torn-tail scan) plus a full
// Replay of a log of add batches — the recovery cost a crashed server
// pays per logged record before it can serve again.
func BenchmarkRecoverReplay(b *testing.B) {
	for _, records := range []int{64, 512} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{NoSync: true, SegmentBytes: 64 << 10})
			if err != nil {
				b.Fatal(err)
			}
			batch := benchGraphs(8)
			for i := 0; i < records; i++ {
				if _, err := l.Append(Record{Type: TypeAdd, First: i * len(batch), Graphs: batch}); err != nil {
					b.Fatal(err)
				}
			}
			l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(dir, Options{NoSync: true, SegmentBytes: 64 << 10})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				if err := l.Replay(0, func(rec Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != records {
					b.Fatalf("replayed %d of %d records", n, records)
				}
				l.Close()
			}
		})
	}
}

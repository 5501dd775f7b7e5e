package graphdim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/segment"
)

// testdata/v4store is a two-shard, 800-graph store written by the last
// release that wrote v4 segments (dspm -gen 800 -shards 2 -p 48 -algo
// dspmap -mcs-budget 2000). testdata/v4rankings.json holds that release's
// rankings of the queries in testdata/v4queries.graphs, per engine and
// for one dimension filter (v4Filter).
const v4Dim = 3

var v4Filter = []*pipeline.Filter{{DimsAll: []int{v4Dim}}}

type v4Rankings struct {
	Mapped, Verified, Exact, Dims [][]Result
}

// copyV4Store copies the fixture store into a fresh directory, so no test
// writes to testdata.
func copyV4Store(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	src := filepath.Join("testdata", "v4store")
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// assertV4Rankings runs the fixture queries against the store at dir,
// opened in mode, and requires the recorded rankings bit for bit.
func assertV4Rankings(t *testing.T, leg, dir string, mode MemoryMode) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "v4queries.graphs"))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := ReadGraphs(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v4rankings.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want v4Rankings
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{Memory: mode})
	if err != nil {
		t.Fatalf("%s: %v", leg, err)
	}
	defer s.Close()
	c, ok := s.Collection("default")
	if !ok {
		t.Fatalf("%s: collection lost", leg)
	}
	ctx := context.Background()
	for qi, q := range queries {
		for _, tc := range []struct {
			name string
			opt  SearchOptions
			want []Result
		}{
			{"mapped", SearchOptions{K: 10}, want.Mapped[qi]},
			{"verified", SearchOptions{K: 10, Engine: EngineVerified, VerifyFactor: 3}, want.Verified[qi]},
			{"exact", SearchOptions{K: 5, Engine: EngineExact}, want.Exact[qi]},
			{"dims", SearchOptions{K: 10, Filters: v4Filter}, want.Dims[qi]},
		} {
			res, err := c.Search(ctx, q, tc.opt)
			if err != nil {
				t.Fatalf("%s: query %d %s: %v", leg, qi, tc.name, err)
			}
			if !reflect.DeepEqual(res.Results, tc.want) {
				t.Fatalf("%s: query %d %s ranks\n%v\nrecorded\n%v", leg, qi, tc.name, res.Results, tc.want)
			}
		}
	}
}

func shardFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "default", "shard-*.gdx"))
	if err != nil || len(files) != 2 {
		t.Fatalf("shard files %v: %v", files, err)
	}
	return files
}

// TestV4StoreUpgrades: a v4 store opens in both memory modes and ranks as
// the release that wrote it did; one Checkpoint rewrites every shard as
// v5, and the upgraded store ranks the same.
func TestV4StoreUpgrades(t *testing.T) {
	for name, mode := range map[string]MemoryMode{"auto": MemoryAuto, "heap": MemoryHeap} {
		t.Run(name, func(t *testing.T) {
			dir := copyV4Store(t)
			assertV4Rankings(t, "v4", dir, mode)
			s, err := OpenStore(dir, StoreOptions{Memory: mode})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Checkpoint()
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range shardFiles(t, dir) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(data, []byte("GDIMIDX5")) {
					t.Fatalf("%s after a checkpoint starts %q", filepath.Base(path), data[:8])
				}
			}
			assertV4Rankings(t, "upgraded", dir, mode)
		})
	}
}

// TestV4DerivedSectionsAreNotRead: a v4 file still carries zone summaries
// and posting lists, but a mapped open (which checks no body checksum)
// derives both from the tiles. Zeroing every zone summary and moving one
// dimension's postings onto other ids — each list still ascending, every
// count unchanged — must not move a ranking.
func TestV4DerivedSectionsAreNotRead(t *testing.T) {
	if !segment.CanMap() {
		t.Skip("no mmap on this platform")
	}
	dir := copyV4Store(t)
	for _, path := range shardFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The v4 trailer: 16 uint64 fields, then two crcs and its magic.
		tr := data[len(data)-144:]
		field := func(i int) int { return int(binary.LittleEndian.Uint64(tr[i*8:])) }
		n, p, zones := field(10), field(11), field(15)
		words := (p + 63) / 64
		zsums := field(9)
		clear(data[zsums : zsums+zones*words*8])

		off := field(6) // the posting lists: per dimension a count, then the ids
		for d := 0; d < v4Dim; d++ {
			off += 4 + 4*int(binary.LittleEndian.Uint32(data[off:]))
		}
		count := int(binary.LittleEndian.Uint32(data[off:]))
		listed := map[uint32]bool{}
		for i := 0; i < count; i++ {
			listed[binary.LittleEndian.Uint32(data[off+4+4*i:])] = true
		}
		moved := 0
		for id := uint32(0); int(id) < n && moved < count; id++ {
			if !listed[id] {
				binary.LittleEndian.PutUint32(data[off+4+4*moved:], id)
				moved++
			}
		}
		if moved != count {
			t.Fatalf("%s: dimension %d lists %d of %d ids; nothing to move them to", filepath.Base(path), v4Dim, count, n)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assertV4Rankings(t, "v4 with corrupt derived sections", dir, MemoryAuto)
}

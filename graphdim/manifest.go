package graphdim

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/segment"
	"repro/internal/wal"
)

// A store directory is the one persisted form of an index, and
// Checkpoint (with the create, drop and CreateStore calls that run one)
// is the one thing that writes it: a store.json manifest naming every
// collection, its shard layout and cache bounds, next to one segment file
// per shard (<dir>/<collection>/shard-NNNN-*.gdx) that carries the
// shard's local→global id table in its ids section. Manifests of earlier
// releases held those tables instead, beside v5 shard files; the open
// ignores the manifest's tables and refuses the v5 files by name.

const (
	manifestName    = "store.json"
	manifestVersion = 1
	// placementSplitMix64 names the id→shard hash of manifest v1. The
	// placement of persisted ids must survive reload, so the function is
	// part of the format: a manifest naming an unknown placement is
	// rejected rather than silently re-placed.
	placementSplitMix64 = "splitmix64"
)

type storeManifest struct {
	Version     int                  `json:"version"`
	Placement   string               `json:"placement"`
	Collections []collectionManifest `json:"collections"`
}

type collectionManifest struct {
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	NextID int    `json:"next_id"`
	// Cache persists the collection's query-cache bounds; the cache
	// contents themselves are runtime state and never persist (a loaded
	// store starts cold, all shard generations at zero).
	Cache cacheManifest `json:"cache,omitempty"`
	// ShardFiles[i] is shard i's index file, relative to the collection
	// directory. Each checkpoint writes fresh uniquely-named files and only
	// then swaps the manifest, so the files a live manifest references
	// are never truncated or overwritten — a crash mid-checkpoint leaves the
	// previous generation fully intact.
	ShardFiles []string `json:"shard_files"`
	// WALSeq is the write-ahead-log sequence number this snapshot covers:
	// every logged record with a sequence <= WALSeq is already reflected
	// in the shard files, so opening the store replays only the records
	// after it. Zero for stores that never logged.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// cacheManifest mirrors CacheOptions.
type cacheManifest struct {
	MaxEntries int   `json:"max_entries,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
}

// installManifest atomically replaces dir's manifest with data: a temp
// file, fsynced before it is renamed over store.json, so a crash leaves
// either the previous manifest or this one, never a torn one. On error
// the temp file is removed and the previous manifest stands.
func installManifest(dir string, data []byte) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
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
		err = os.Rename(tmp, filepath.Join(dir, manifestName))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// shardPattern names a new shard file; the "*" is replaced by a unique
// token (os.CreateTemp), so successive checkpoints never touch each
// other's files.
func shardPattern(shard int) string {
	return fmt.Sprintf("shard-%04d-*.gdx", shard)
}

// checkpoint persists the whole store under its data directory: one
// freshly named segment file per shard, written in parallel under the
// store budget after the shard's lanes appended since its last rewrite
// are clustered (Index.resort), then the manifest — written last and
// atomically (temp file + rename) — recording per collection the WAL sequence its shard
// files cover; after the swap the fully replayed log segments are
// deleted. Files referenced by an existing manifest are never truncated
// or overwritten, so a crash or error at any point leaves the previous
// on-disk generation fully loadable; files the new manifest supersedes
// (and the debris of failed checkpoints) are deleted only after the swap.
// On any error the files this attempt wrote are removed again.
//
// extra, when non-nil, is a collection mid-create: it is included in the
// image and published into s.collections the moment the manifest
// installs, still under saveMu — so no other checkpoint can ever
// observe it registered-but-unmanifested (its writes would be swept) or
// manifested-but-unregistered (a crash would lose an acknowledged
// create).
func (s *Store) checkpoint(extra *Collection) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.checkpointLocked(extra)
}

// checkpointLocked is checkpoint's body; the caller holds saveMu. Split
// out so a durable create can claim its wal directory and checkpoint
// under one continuous saveMu hold — a sweep can then never run between
// the two and mistake the fresh directory for droppable debris.
func (s *Store) checkpointLocked(extra *Collection) (err error) {
	dir := s.dir
	var written []string
	defer func() {
		if err == nil {
			return
		}
		// Failed attempt: sweep this attempt's fresh shard files. Shard
		// files of the live manifest are never in written, so the
		// previous generation stays fully loadable.
		for _, p := range written {
			os.Remove(p)
		}
	}()
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections)+1)
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	if extra != nil {
		colls = append(colls, extra)
	}
	sort.Slice(colls, func(i, j int) bool { return colls[i].name < colls[j].name })

	man := storeManifest{Version: manifestVersion, Placement: placementSplitMix64}
	for _, c := range colls {
		cdir := filepath.Join(dir, c.name)
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return fmt.Errorf("graphdim: checkpoint: %w", err)
		}
		cm := collectionManifest{
			Name:       c.name,
			Shards:     len(c.shards),
			Cache:      cacheManifest{MaxEntries: c.cacheOpt.MaxEntries, MaxBytes: c.cacheOpt.MaxBytes},
			ShardFiles: make([]string, len(c.shards)),
		}
		// The writer lock is held only while the per-shard snapshot
		// pointers are captured — O(shards), not for the (slow) encode
		// and fsync below — yet the image stays transactionally
		// consistent: writers serialize on this same lock, so an Add
		// spanning several shards is either fully included or fully
		// excluded, and the WAL sequence captured here is exactly the
		// last record the captured states reflect. The states themselves
		// are immutable (copy-on-write), so encoding them lock-free is
		// safe while Adds, Removes, and Compact continue.
		c.addMu.Lock()
		// Pin each shard's snapshot: the index keeps advancing after the
		// lock is released, and the image must stay exactly the one the
		// captured WAL sequence describes.
		images := make([]*snapshot, len(c.shards))
		for i, sh := range c.shards {
			images[i] = sh.snap.Load()
		}
		cm.NextID = int(c.nextID.Load())
		cm.WALSeq = c.applied.Load()
		c.addMu.Unlock()
		errs := make([]error, len(c.shards))
		_ = s.budget.ForContext(context.Background(), len(c.shards), func(i int) {
			img, err := c.shards[i].resort(images[i])
			if err != nil {
				errs[i] = err
				return
			}
			cm.ShardFiles[i], errs[i] = c.shards[i].writeShardImage(cdir, i, img)
		})
		// Collect every file the fan-out created before acting on any
		// error: the cleanup must see them all, or a failed checkpoint
		// would leave the successful shards' fresh files as debris.
		for _, f := range cm.ShardFiles {
			if f != "" {
				written = append(written, filepath.Join(cdir, f))
			}
		}
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("graphdim: checkpoint %s shard %d: %w", c.name, i, err)
			}
		}
		man.Collections = append(man.Collections, cm)
	}

	data, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("graphdim: checkpoint: %w", err)
	}
	// The manifest is fsynced before the rename and the directories
	// after it, so by the time the truncation below deletes WAL
	// records the snapshot replacing them has actually reached the
	// disk — a power cut can land on either side of the swap, never on
	// a snapshot that exists only in the page cache.
	if err := installManifest(dir, data); err != nil {
		return fmt.Errorf("graphdim: checkpoint: %w", err)
	}
	for _, cm := range man.Collections {
		wal.SyncDir(filepath.Join(dir, cm.Name))
	}
	wal.SyncDir(dir)
	// Point of no return: the manifest rename installed the snapshot, so
	// the checkpoint has succeeded — the fresh files must survive any
	// later hiccup, and nothing past here may turn into a reported
	// failure (callers compensate for failed checkpoints by un-creating
	// or un-dropping collections, which would be wrong against an
	// installed manifest). Log truncation is therefore best-effort, like
	// the orphan sweep: an unreclaimed segment costs disk, never
	// correctness — replay skips records <= WALSeq.
	written = nil
	if extra != nil {
		// Publish the freshly persisted collection while still holding
		// saveMu — see the doc comment.
		s.mu.Lock()
		s.collections[extra.name] = extra
		s.mu.Unlock()
	}
	// Collections mid-create have claimed their directory (and possibly
	// a live wal segment) but are not in this manifest yet: the sweep
	// must leave them alone. Their own create checkpoint settles them.
	s.mu.RLock()
	inCreation := make(map[string]bool, len(s.creating))
	for name := range s.creating {
		inCreation[name] = true
	}
	s.mu.RUnlock()
	sweepOrphans(dir, man, inCreation)
	for i, c := range colls {
		if c.wal != nil {
			_ = c.wal.Checkpoint(man.Collections[i].WALSeq)
		}
	}
	s.checkpoints.Add(1)
	return nil
}

// sweepOrphans deletes shard files the just-installed manifest does not
// reference: superseded generations, the debris of failed checkpoints,
// and the directories and logs of collections dropped since the previous
// checkpoint. Names in inCreation are skipped entirely (a concurrent
// create owns them). Best-effort — an undeleted orphan costs disk, never
// correctness.
func sweepOrphans(dir string, man storeManifest, inCreation map[string]bool) {
	live := make(map[string]map[string]bool, len(man.Collections))
	for _, cm := range man.Collections {
		keep := make(map[string]bool, len(cm.ShardFiles))
		for _, f := range cm.ShardFiles {
			keep[f] = true
		}
		live[cm.Name] = keep
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, d := range entries {
		// Only directories matching the collection-name grammar are the
		// checkpoint's to manage; anything else in dir is left alone.
		if !d.IsDir() || !collectionName.MatchString(d.Name()) {
			continue
		}
		if inCreation[d.Name()] {
			continue
		}
		keep := live[d.Name()] // nil (keep nothing) for dropped collections
		cdir := filepath.Join(dir, d.Name())
		files, err := os.ReadDir(cdir)
		if err != nil {
			continue
		}
		for _, e := range files {
			name := e.Name()
			if !keep[name] && strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".gdx") {
				os.Remove(filepath.Join(cdir, name))
			}
		}
		if keep == nil {
			// Dropped collection: retire its write-ahead log, then the
			// directory too, if now empty. Deliberately artifact-by-
			// artifact rather than RemoveAll — a foreign directory that
			// merely matches the name grammar (an operator's "backups/")
			// must never be recursively deleted.
			wdir := filepath.Join(cdir, walDirName)
			if segs, err := os.ReadDir(wdir); err == nil {
				for _, e := range segs {
					if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") {
						os.Remove(filepath.Join(wdir, e.Name()))
					}
				}
				os.Remove(wdir)
			}
			os.Remove(cdir)
		}
	}
}

// writeShardImage writes snap, a pinned snapshot of shard i, to a fresh
// uniquely named file in cdir and returns its basename. The snapshot is
// immutable, so no locks are held: readers and writers proceed while the
// file streams out. Nothing pre-existing is touched.
func (ix *Index) writeShardImage(cdir string, i int, snap *snapshot) (string, error) {
	f, err := os.CreateTemp(cdir, shardPattern(i))
	if err != nil {
		return "", err
	}
	name := filepath.Base(f.Name())
	// The segment writer issues a write per offset and per payload; the
	// buffer turns those into large writes.
	bw := bufio.NewWriterSize(f, 256<<10)
	err = ix.writeSegment(bw, snap)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	// fsync before the manifest can reference the file: a checkpoint
	// deletes WAL records on the strength of this snapshot, so the
	// snapshot must be at least as durable as the records it replaces.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return name, nil
}

// resort clusters the lanes Add appended to pinned, a snapshot of ix
// the caller pinned, and returns the snapshot to checkpoint: pinned
// itself when there was nothing to sort. The sort runs on the immutable
// pinned snapshot outside every lock; the result is published only if ix
// still serves pinned — a write since then keeps the shard as it is, and
// the next checkpoint sorts it. The publish moves no generation: the
// sorted snapshot holds the same graphs, ids and tombstones, so no result,
// cache entry or freshness token it could serve differs.
func (ix *Index) resort(pinned *snapshot) (*snapshot, error) {
	next, err := pinned.resorted()
	if err != nil || next == nil {
		return pinned, err
	}
	ix.mu.Lock()
	if ix.snap.Load() == pinned {
		ix.snap.Store(next)
	}
	ix.mu.Unlock()
	return next, nil
}

// OpenStore loads a store directory its last checkpoint installed,
// reading the shard indexes in parallel under the new store's budget and
// then replaying each collection's write-ahead-log tail over its
// checkpointed state, so the store comes back holding exactly the writes
// that were committed — checkpointed or not — when the previous process
// stopped, however it stopped. The opened store is durable and owns dir
// until Close: its writes log there, and any other open of dir fails
// while it lasts. The options configure the returned store exactly as
// NewStore does — the worker budget is a runtime setting, not persisted
// state. Every shard file is checked against its checksums as it opens,
// so a corrupt one fails the open by name before any query is served.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	if err := opt.checkMemory(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("graphdim: open store: %w", err)
	}
	var man storeManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("graphdim: open store: decode manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("graphdim: open store: unsupported manifest version %d", man.Version)
	}
	if man.Placement != placementSplitMix64 {
		return nil, fmt.Errorf("graphdim: open store: unknown placement %q", man.Placement)
	}

	s := NewStore(opt)
	s.dir = dir
	// Single-owner guard, taken before any log is opened (and possibly
	// torn-tail truncated): a second process must fail here, not corrupt
	// the first one's live segments.
	lock, err := lockDataDir(dir)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.lock = lock
	for _, cm := range man.Collections {
		c, err := s.loadCollection(dir, cm)
		if err == nil {
			err = s.attachWAL(c, cm.WALSeq)
		}
		if err == nil {
			// Recover the log tail: committed records the checkpoint does
			// not cover. attachWAL also truncates any torn record a crash
			// left behind the last committed one, and re-seeding the
			// checkpoint position both fixes the stats and reclaims
			// segments a crash between manifest swap and truncation left
			// behind.
			if err = c.replayWAL(cm.WALSeq); err == nil {
				err = c.wal.Checkpoint(cm.WALSeq)
			}
		}
		if err != nil {
			if c != nil && c.wal != nil {
				c.wal.Close()
			}
			s.Close()
			return nil, fmt.Errorf("graphdim: open store: collection %q: %w", cm.Name, err)
		}
		s.mu.Lock()
		if _, ok := s.collections[cm.Name]; ok {
			s.mu.Unlock()
			s.Close()
			return nil, fmt.Errorf("graphdim: open store: duplicate collection %q", cm.Name)
		}
		s.collections[cm.Name] = c
		s.mu.Unlock()
	}
	return s, nil
}

// check refuses a collection entry before anything it names is opened: a
// name outside the grammar, a shard count outside [1, maxShards] or unlike
// the shard files listed, a next id outside the 32-bit rank range, or a
// shard file that is not a bare basename — so a hand-edited or hostile
// manifest cannot reach outside its collection's directory. The store's
// open and a snapshot's extract both run it.
func (cm collectionManifest) check() error {
	if !collectionName.MatchString(cm.Name) {
		return fmt.Errorf("invalid name")
	}
	if cm.Shards < 1 || cm.Shards > maxShards {
		return fmt.Errorf("shard count %d outside [1,%d]", cm.Shards, maxShards)
	}
	// A global id is the rank a scan packs into 32 bits (topk.Order).
	if cm.NextID < 0 || cm.NextID > math.MaxUint32 {
		return fmt.Errorf("next id %d outside [0,2^32)", cm.NextID)
	}
	if len(cm.ShardFiles) != cm.Shards {
		return fmt.Errorf("%d shard files for %d shards", len(cm.ShardFiles), cm.Shards)
	}
	for i, f := range cm.ShardFiles {
		if f == "" || f != filepath.Base(f) {
			return fmt.Errorf("shard %d: invalid file name %q", i, f)
		}
	}
	return nil
}

func (s *Store) loadCollection(dir string, cm collectionManifest) (*Collection, error) {
	if err := cm.check(); err != nil {
		return nil, err
	}
	cacheOpt := CacheOptions{MaxEntries: cm.Cache.MaxEntries, MaxBytes: cm.Cache.MaxBytes}
	// Same domain checks as create time, so a hand-edited manifest fails
	// at open rather than as confusing per-query errors later.
	if err := (CollectionOptions{Shards: cm.Shards, Cache: cacheOpt}).validate(); err != nil {
		return nil, err
	}

	c := &Collection{
		store:    s,
		name:     cm.Name,
		shards:   make([]*Index, cm.Shards),
		cacheOpt: cacheOpt,
		cache:    newQueryCache(cacheOpt),
	}
	c.nextID.Store(int64(cm.NextID))
	errs := make([]error, cm.Shards)
	_ = s.budget.ForContext(context.Background(), cm.Shards, func(i int) {
		// By path, so the shard is mapped in place rather than read
		// through the heap; it serves under its segment's id table.
		r, err := segment.Open(filepath.Join(dir, cm.Name, cm.ShardFiles[i]), segment.Options{Map: true})
		if err == nil {
			c.shards[i], err = indexFromSegment(r)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// One dimension set per collection. Releases whose Compact re-selected
	// dimensions per shard could checkpoint shards that rank in unrelated
	// spaces; merging their distances is meaningless, so such a directory is
	// refused rather than served.
	dims := c.shards[0].dims
	for i, sh := range c.shards[1:] {
		if sh.dims != dims {
			return nil, fmt.Errorf("shard %d holds a different dimension set than shard 0 — compacted by an earlier release; re-create the collection", i+1)
		}
	}
	for i, sh := range c.shards {
		if err := checkIDTable(sh.snap.Load(), i, cm.Shards, cm.NextID); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkIDTable checks shard i's id table, as snap serves it: one id per
// lane, each below next, each placing on shard i, none twice. The table
// is in lane order, which a split or Compact clusters, so it need not be
// sorted.
func checkIDTable(snap *snapshot, i, shards, next int) error {
	globals := snap.globals
	if n := len(snap.db); len(globals) != n {
		return fmt.Errorf("shard %d: %d ids in its id table for %d graphs", i, len(globals), n)
	}
	for _, g := range globals {
		if g < 0 || g >= next {
			return fmt.Errorf("shard %d: id %d outside [0,%d)", i, g, next)
		}
		if placeID(g, shards) != i {
			return fmt.Errorf("shard %d: id %d places on shard %d", i, g, placeID(g, shards))
		}
	}
	// byGlobal sorts the table: a repeated id sits beside its twin.
	for j := 1; j < len(snap.byGlobal); j++ {
		if g := globals[snap.byGlobal[j]]; g == globals[snap.byGlobal[j-1]] {
			return fmt.Errorf("shard %d: id %d appears twice in its id table", i, g)
		}
	}
	return nil
}

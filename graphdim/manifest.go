package graphdim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/wal"
)

// A store persists as a directory: a store.json manifest naming every
// collection, its shard layout, worker bound and default-search options, and the
// local→global id table of each shard, next to one v4 segment file per
// shard (<dir>/<collection>/shard-NNNN.gdx, the WriteTo format). Shard files
// carry no ids of their own — the manifest's tables are authoritative —
// so the per-shard codec stays exactly the single-index format and a
// shard file remains loadable as a plain index with ReadIndex.

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
	Name     string           `json:"name"`
	Shards   int              `json:"shards"`
	NextID   int              `json:"next_id"`
	Build    buildManifest    `json:"build"`
	Defaults defaultsManifest `json:"defaults"`
	// Cache persists the collection's query-cache bounds; the cache
	// contents themselves are runtime state and never persist (a loaded
	// store starts cold, all shard generations at zero).
	Cache cacheManifest `json:"cache,omitempty"`
	// ShardFiles[i] is shard i's index file, relative to the collection
	// directory. Each Save writes fresh uniquely-named files and only
	// then swaps the manifest, so the files a live manifest references
	// are never truncated or overwritten — a crash mid-save leaves the
	// previous generation fully intact.
	ShardFiles []string `json:"shard_files"`
	// ShardGlobals[i] is shard i's strictly ascending local→global table.
	ShardGlobals [][]int `json:"shard_globals"`
	// WALSeq is the write-ahead-log sequence number this snapshot covers:
	// every logged record with a sequence <= WALSeq is already reflected
	// in the shard files, so opening the store replays only the records
	// after it. Zero for stores that never logged.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// buildManifest persists the one build option that outlives creation:
// the worker bound shardIdxWorkers divides among the shards at open. The
// selection parameters an earlier release wrote next to it (tau, algorithm,
// MCS budget, ... — inputs to per-shard rebuilds that no longer exist)
// still parse and are dropped.
type buildManifest struct {
	Workers int `json:"workers,omitempty"`
}

// cacheManifest mirrors CacheOptions.
type cacheManifest struct {
	MaxEntries int   `json:"max_entries,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
}

// defaultsManifest mirrors the scalar fields of SearchOptions (Predicate
// does not persist).
type defaultsManifest struct {
	K             int    `json:"k,omitempty"`
	Engine        string `json:"engine,omitempty"`
	VerifyFactor  int    `json:"verify_factor,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
	Metric        int    `json:"metric,omitempty"`
}

func toDefaultsManifest(o SearchOptions) defaultsManifest {
	m := defaultsManifest{
		K:             o.K,
		VerifyFactor:  o.VerifyFactor,
		MaxCandidates: o.MaxCandidates,
		Metric:        int(o.Metric),
	}
	if o.Engine != EngineMapped {
		m.Engine = o.Engine.String()
	}
	return m
}

func (m defaultsManifest) options() (SearchOptions, error) {
	o := SearchOptions{
		K:             m.K,
		VerifyFactor:  m.VerifyFactor,
		MaxCandidates: m.MaxCandidates,
		Metric:        MetricChoice(m.Metric),
	}
	if m.Engine != "" {
		e, err := ParseEngine(m.Engine)
		if err != nil {
			return o, err
		}
		o.Engine = e
	}
	return o, nil
}

// writeFileSync is os.WriteFile plus an fsync before close.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardPattern names a new shard file; the "*" is replaced by a unique
// token (os.CreateTemp), so successive saves never touch each other's
// files.
func shardPattern(shard int) string {
	return fmt.Sprintf("shard-%04d-*.gdx", shard)
}

// Save persists the whole store under dir: one freshly named index file
// per shard, written in parallel under the store budget, then the
// manifest — written last and atomically (temp file + rename). Files
// referenced by an existing manifest are never truncated or overwritten,
// so a crash or error at any point leaves the previous on-disk generation
// fully loadable; files the new manifest supersedes (and the debris of
// failed saves) are deleted only after the swap. Save may run
// concurrently with queries and writes; each collection's writers pause
// only while its per-shard snapshot pointers are captured (O(shards)),
// not while the files stream out, and the capture is atomic under the
// writer lock — a multi-shard Add is either fully in the saved image or
// fully absent, never split across shards. Saves of one
// Store are serialized with each other (the sweep must not race another
// save's in-flight files); saving the same directory from two different
// Store values is not supported.
func (s *Store) Save(dir string) error { return s.saveTo(dir, false, nil) }

// saveTo is Save plus, for Checkpoint (truncate = true), log-position
// bookkeeping: each collection's manifest entry records the WAL sequence
// its shard files cover, and after the manifest swap the fully replayed
// log segments are deleted. On any error the files this attempt wrote
// are removed again, so a failed save leaves the directory exactly as
// the previous successful one did — the previous manifest and every file
// it references are never touched either way.
//
// extra, when non-nil, is a collection mid-create: it is included in the
// image and published into s.collections the moment the manifest
// installs, still under saveMu — so no other checkpoint can ever
// observe it registered-but-unmanifested (its writes would be swept) or
// manifested-but-unregistered (a crash would lose an acknowledged
// create).
func (s *Store) saveTo(dir string, truncate bool, extra *Collection) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.saveToLocked(dir, truncate, extra)
}

// saveToLocked is saveTo's body; the caller holds saveMu. Split out so
// a durable create can claim its wal directory and checkpoint under one
// continuous saveMu hold — a sweep can then never run between the two
// and mistake the fresh directory for droppable debris.
func (s *Store) saveToLocked(dir string, truncate bool, extra *Collection) (err error) {
	tmp := filepath.Join(dir, manifestName+".tmp")
	var written []string
	defer func() {
		if err == nil {
			return
		}
		// Failed attempt: sweep this attempt's debris (fresh shard files,
		// the temp manifest). Shard files of the live manifest are never
		// in written, so the previous generation stays fully loadable.
		for _, p := range written {
			os.Remove(p)
		}
		os.Remove(tmp)
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("graphdim: save store: %w", err)
	}
	// An export is a save to a directory the store's logs do not live
	// in. Misclassifying a save of the store's own directory as an
	// export would sweep the live logs, so aliased spellings (relative
	// vs absolute, symlinks) are resolved by comparing the actual
	// directories, not just cleaned path strings.
	exported := s.dir == ""
	if !exported && filepath.Clean(dir) != filepath.Clean(s.dir) {
		di, err1 := os.Stat(dir)
		si, err2 := os.Stat(s.dir)
		exported = err1 != nil || err2 != nil || !os.SameFile(di, si)
	}
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
			return fmt.Errorf("graphdim: save store: %w", err)
		}
		cm := collectionManifest{
			Name:         c.name,
			Shards:       len(c.shards),
			Build:        buildManifest{Workers: c.workers},
			Defaults:     toDefaultsManifest(c.defaults),
			Cache:        cacheManifest{MaxEntries: c.cacheOpt.MaxEntries, MaxBytes: c.cacheOpt.MaxBytes},
			ShardFiles:   make([]string, len(c.shards)),
			ShardGlobals: make([][]int, len(c.shards)),
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
		switch {
		case exported:
			// Export to a foreign directory: the snapshot ships without
			// its log, so it must not claim to cover one — wal_seq 0
			// makes an opened copy's fresh log replay from the start.
			// (The source log's positions mean nothing to the copy.)
			cm.WALSeq = 0
		case c.wal != nil:
			// The settled watermark, not the raw log tail: on a follower
			// the tail may include a mirrored add batch still buffered
			// against a possible amendment — not yet in shard state, so a
			// snapshot claiming to cover it would skip it on reopen. On a
			// primary the two agree here (addMu is held, no writer is
			// mid-batch).
			cm.WALSeq = c.applied.Load()
		default:
			// No log (WAL disabled): keep the loaded position — segments
			// up to it may still exist on disk, and a lower wal_seq would
			// make a later WAL-enabled open replay records this snapshot
			// already contains.
			cm.WALSeq = c.walBase
		}
		c.addMu.Unlock()
		errs := make([]error, len(c.shards))
		_ = s.budget.ForContext(context.Background(), len(c.shards), func(i int) {
			cm.ShardFiles[i], errs[i] = c.shards[i].writeShardImage(cdir, i, images[i])
			// A copy, as the table always was: an empty one persists as
			// null, a loaded one as the list it was read from.
			cm.ShardGlobals[i] = append([]int(nil), images[i].globals...)
		})
		// Collect every file the fan-out created before acting on any
		// error: the cleanup must see them all, or a failed save would
		// leave the successful shards' fresh files as debris.
		for _, f := range cm.ShardFiles {
			if f != "" {
				written = append(written, filepath.Join(cdir, f))
			}
		}
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("graphdim: save %s shard %d: %w", c.name, i, err)
			}
		}
		man.Collections = append(man.Collections, cm)
	}

	data, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return fmt.Errorf("graphdim: save store: %w", err)
	}
	// The manifest is fsynced before the rename and the directories
	// after it, so by the time the truncation below deletes WAL
	// records the snapshot replacing them has actually reached the
	// disk — a power cut can land on either side of the swap, never on
	// a snapshot that exists only in the page cache.
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("graphdim: save store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("graphdim: save store: %w", err)
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
	sweepOrphans(dir, man, inCreation, exported)
	if truncate {
		for i, c := range colls {
			if c.wal != nil {
				_ = c.wal.Checkpoint(man.Collections[i].WALSeq)
			}
		}
		s.checkpoints.Add(1)
	}
	return nil
}

// sweepOrphans deletes shard files the just-installed manifest does not
// reference: superseded generations, the debris of failed saves, and the
// directories of collections dropped since the previous save. Names in
// inCreation are skipped entirely (a concurrent create owns them); with
// exported set (a Save to a directory the store's logs do not live in),
// stale wal segments under live collections are retired too, since the
// written manifest claims no log position. Best-effort — an undeleted
// orphan costs disk, never correctness.
func sweepOrphans(dir string, man storeManifest, inCreation map[string]bool, exported bool) {
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
		// Only directories matching the collection-name grammar are
		// Save's to manage; anything else in dir is left alone.
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
		if keep == nil || exported {
			// Retire the write-ahead log: of a dropped collection always,
			// of a live one only in an exported image (its manifest says
			// wal_seq 0, so leftover segments from an older store in this
			// directory would wrongly replay). Deliberately artifact-by-
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
		}
		if keep == nil {
			// Dropped collection: remove the directory too, if now empty.
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
	if err := ix.writeSegment(f, snap); err != nil {
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

// OpenStore loads a store previously written by Save or Checkpoint,
// reading the shard indexes in parallel under the new store's budget and
// then replaying each collection's write-ahead-log tail over its
// checkpointed state, so the store comes back holding exactly the writes
// that were committed — checkpointed or not — when the previous process
// stopped, however it stopped. The opened store is durable: subsequent
// writes log to dir (unless opt.WAL.Disabled). The options configure the
// returned store exactly as NewStore does — the worker budget and memory
// mode are runtime settings, not persisted state.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
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
	if !opt.WAL.Disabled {
		// Single-owner guard, taken before any log is opened (and
		// possibly torn-tail truncated): a second process must fail here,
		// not corrupt the first one's live segments.
		lock, err := lockDataDir(dir)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.lock = lock
	}
	for _, cm := range man.Collections {
		c, err := s.loadCollection(dir, cm)
		if err == nil {
			c.walBase = cm.WALSeq
			if s.walOpt.Disabled {
				// No log will attach, so nothing would replay: refuse if
				// the directory holds acknowledged records beyond the
				// checkpoint rather than silently dropping them.
				err = s.verifyNoWALTail(c.name, cm.WALSeq)
			} else if err = s.attachWAL(c); err == nil && c.wal != nil {
				// Recover the log tail: committed records the checkpoint
				// does not cover. attachWAL also truncates any torn record
				// a crash left behind the last committed one, and
				// re-seeding the checkpoint position both fixes the stats
				// and reclaims segments a crash between manifest swap and
				// truncation left behind.
				if err = c.replayWAL(cm.WALSeq); err == nil {
					err = c.wal.Checkpoint(cm.WALSeq)
				}
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

func (s *Store) loadCollection(dir string, cm collectionManifest) (*Collection, error) {
	if !collectionName.MatchString(cm.Name) {
		return nil, fmt.Errorf("invalid name")
	}
	if cm.Shards < 1 || cm.Shards > maxShards {
		return nil, fmt.Errorf("shard count %d outside [1,%d]", cm.Shards, maxShards)
	}
	if len(cm.ShardGlobals) != cm.Shards {
		return nil, fmt.Errorf("%d id tables for %d shards", len(cm.ShardGlobals), cm.Shards)
	}
	if len(cm.ShardFiles) != cm.Shards {
		return nil, fmt.Errorf("%d shard files for %d shards", len(cm.ShardFiles), cm.Shards)
	}
	for i, f := range cm.ShardFiles {
		// Basenames only: a hand-edited manifest must not escape the
		// collection directory.
		if f == "" || f != filepath.Base(f) {
			return nil, fmt.Errorf("shard %d: invalid file name %q", i, f)
		}
	}
	defaults, err := cm.Defaults.options()
	if err != nil {
		return nil, err
	}
	cacheOpt := CacheOptions{MaxEntries: cm.Cache.MaxEntries, MaxBytes: cm.Cache.MaxBytes}
	// Same domain checks as create time, so a hand-edited manifest fails
	// at open rather than as confusing per-query errors later.
	if err := (CollectionOptions{Shards: cm.Shards, Defaults: defaults, Cache: cacheOpt}).validate(); err != nil {
		return nil, err
	}

	c := &Collection{
		store:    s,
		name:     cm.Name,
		workers:  cm.Build.Workers,
		defaults: defaults,
		shards:   make([]*Index, cm.Shards),
		cacheOpt: cacheOpt,
		cache:    newQueryCache(cacheOpt),
	}
	c.nextID.Store(int64(cm.NextID))
	errs := make([]error, cm.Shards)
	_ = s.budget.ForContext(context.Background(), cm.Shards, func(i int) {
		errs[i] = func() error {
			// Open by path, not reader: a v4 segment shard under
			// MemoryAuto/MemoryMap is mmapped in place rather than
			// streamed through the heap.
			globals := append([]int(nil), cm.ShardGlobals[i]...)
			idx, err := openSegmentIndex(filepath.Join(dir, cm.Name, cm.ShardFiles[i]), s.memory, globals)
			if err != nil {
				return err
			}
			// The open hands out a full per-CPU worker bound; a shard
			// gets its per-shard share, like CreateFromIndex's shards.
			idx.workers = c.shardIdxWorkers()
			if len(globals) != idx.TotalGraphs() {
				return fmt.Errorf("shard %d: %d ids in manifest for %d graphs", i, len(globals), idx.TotalGraphs())
			}
			for j, g := range globals {
				if g < 0 || g >= cm.NextID {
					return fmt.Errorf("shard %d: id %d outside [0,%d)", i, g, cm.NextID)
				}
				if j > 0 && globals[j-1] >= g {
					return fmt.Errorf("shard %d: id table not strictly ascending at %d", i, j)
				}
				if placeID(g, cm.Shards) != i {
					return fmt.Errorf("shard %d: id %d places on shard %d", i, g, placeID(g, cm.Shards))
				}
			}
			c.shards[i] = idx
			return nil
		}()
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
	return c, nil
}

package graphdim

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/segment"
	"repro/internal/wal"
)

// Snapshot transfer — how a follower bootstraps. The primary streams
// its last installed checkpoint as a tar archive (the manifest plus
// every shard file it references); the follower extracts it into a
// fresh data directory and opens it normally. The manifest's per-
// collection WALSeq tells the opened store — and through it the
// replication tailer — exactly where in the primary's sequence space
// the image stops, and attachWAL seeds the follower's empty log to
// continue numbering from there.

// WriteSnapshotTar streams the store's last installed checkpoint to w
// as a tar archive: store.json first, then each referenced shard file.
// It serializes with checkpoints (holding the save lock), which is
// what makes the read consistent: the manifest on disk cannot be
// swapped, and the files it references are never truncated, overwritten
// or swept while the lock is held. Live WAL segments are deliberately
// not included — the image is exactly a checkpoint, and the receiver
// reads everything after its WALSeq from the replication stream.
func (s *Store) WriteSnapshotTar(w io.Writer) error {
	if s.dir == "" {
		return fmt.Errorf("graphdim: snapshot: store has no data directory")
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()

	manPath := filepath.Join(s.dir, manifestName)
	manData, err := os.ReadFile(manPath)
	if err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	var man storeManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return fmt.Errorf("graphdim: snapshot: decode manifest: %w", err)
	}

	tw := tar.NewWriter(w)
	if err := tw.WriteHeader(&tar.Header{Name: manifestName, Mode: 0o644, Size: int64(len(manData))}); err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	if _, err := tw.Write(manData); err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	for _, cm := range man.Collections {
		for _, f := range cm.ShardFiles {
			// Shard segments ship verbatim, streamed file-to-socket —
			// never buffered whole, never decoded. Checkpoint files are
			// immutable once the manifest references them (replacements
			// get fresh names), so size-then-copy is stable under the
			// save lock.
			if err := tarStream(tw, cm.Name+"/"+f, filepath.Join(s.dir, cm.Name, f)); err != nil {
				return err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	return nil
}

// tarStream copies one on-disk file into the archive without holding it
// in memory — the sendfile-shaped half of follower bootstrap: io.Copy
// from an *os.File lets the runtime use copy_file_range/sendfile-style
// fast paths where the destination supports them, and a mapped source
// page never round-trips through a decode.
func tarStream(tw *tar.Writer, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	hdr := &tar.Header{Name: name, Mode: 0o644, Size: st.Size()}
	if err := tw.WriteHeader(hdr); err != nil {
		return fmt.Errorf("graphdim: snapshot: %w", err)
	}
	if _, err := io.Copy(tw, f); err != nil {
		return fmt.Errorf("graphdim: snapshot: %q: %w", name, err)
	}
	return nil
}

// ExtractSnapshotTar unpacks a WriteSnapshotTar stream into dir, which
// must not already hold a store. It is all or nothing: the manifest is
// installed last, once every shard file it names has arrived whole,
// fsynced, and passed its body checksum (a mapped open never reads the
// body); on any error the files this call wrote are removed, so the next
// attempt starts clean. Entry names are confined to dir, and the
// manifest passes the store's own collection checks and names only shard
// files this archive delivered — a hostile archive can neither escape dir
// nor adopt a file already there.
func ExtractSnapshotTar(dir string, r io.Reader) (err error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return fmt.Errorf("graphdim: extract snapshot: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("graphdim: extract snapshot: %w", err)
	}
	var written []string
	dirs := map[string]bool{dir: true}
	defer func() {
		if err != nil {
			err = fmt.Errorf("graphdim: extract snapshot: %w", err)
			for _, p := range written {
				os.Remove(p)
			}
			for d := range dirs {
				os.Remove(d) // only if empty
			}
		}
	}()
	var manData []byte
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if hdr.Typeflag != tar.TypeReg {
			return fmt.Errorf("unexpected entry type %d for %q", hdr.Typeflag, hdr.Name)
		}
		name := filepath.Clean(hdr.Name)
		if name == "" || filepath.IsAbs(name) || name == ".." || strings.HasPrefix(name, ".."+string(filepath.Separator)) {
			return fmt.Errorf("entry %q escapes the target directory", hdr.Name)
		}
		if name == manifestName {
			manData, err = io.ReadAll(tr)
		} else {
			err = extractFile(filepath.Join(dir, name), tr, dirs, &written)
		}
		if err != nil {
			return fmt.Errorf("%q: %w", hdr.Name, err)
		}
	}
	if manData == nil {
		return fmt.Errorf("archive holds no %s", manifestName)
	}
	var man storeManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return fmt.Errorf("decode manifest: %w", err)
	}
	for _, cm := range man.Collections {
		if err := cm.check(); err != nil {
			return fmt.Errorf("collection %q: %w", cm.Name, err)
		}
		for i, f := range cm.ShardFiles {
			path := filepath.Join(dir, cm.Name, f)
			if !slices.Contains(written, path) {
				return fmt.Errorf("collection %q: shard %d: %s is not in the archive", cm.Name, i, f)
			}
			sr, err := segment.Open(path, segment.Options{Map: true})
			if err != nil {
				return err
			}
			sr.Close()
		}
	}
	for d := range dirs {
		wal.SyncDir(d)
	}
	if err := installManifest(dir, manData); err != nil {
		return err
	}
	wal.SyncDir(dir)
	return nil
}

// extractFile writes one archive entry to path, which must not exist,
// and fsyncs it; path's directory is created on first use and recorded
// in dirs, and path in written as soon as it exists.
func extractFile(path string, r io.Reader, dirs map[string]bool, written *[]string) error {
	if d := filepath.Dir(path); !dirs[d] {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		dirs[d] = true
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	*written = append(*written, path)
	_, err = io.Copy(f, r)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

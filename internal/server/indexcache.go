package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"

	"repro/tkd"
)

// The on-disk persisted-index cache behind tkdserver -indexdir. The paper's
// Table 3 shows binned-bitmap construction dominating preprocessing cost;
// persisting the index means a warm restart (or a reload of an unchanged
// file) skips the rebuild entirely. One file per dataset name:
//
//	<dir>/<escaped name>.tkdix = magic | dataset fingerprint | SaveIndex stream
//
// The fingerprint (tkd.Dataset.Fingerprint, a digest of the full data
// contents) gates reuse: a changed data file hashes differently, so the
// stale index is rebuilt and overwritten rather than trusted. The SaveIndex
// stream carries its own CRC and shape checks, so a truncated or bit-flipped
// cache file degrades to a rebuild, never to a corrupt serving index.

// cacheMagic versions the wrapper; bump it to invalidate every cached file.
var cacheMagic = [8]byte{'T', 'K', 'D', 'I', 'X', 'D', '1', '\n'}

type indexCache struct{ dir string }

// newIndexCache opens (creating if needed) the cache directory; an empty
// dir disables the cache.
func newIndexCache(dir string) (*indexCache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating index dir: %w", err)
	}
	return &indexCache{dir: dir}, nil
}

// path maps a dataset name to its cache file, escaping separators so names
// like "prod/nba" cannot walk out of the directory.
func (c *indexCache) path(name string) string {
	return filepath.Join(c.dir, url.PathEscape(name)+".tkdix")
}

// shardPath maps one shard of a sharded dataset to its cache file. The
// shard index rides in the name; the shard *contents* are validated by the
// slice fingerprint in the header, exactly like the dataset-level file.
// The raw '%' separator cannot appear in an escaped dataset name
// (PathEscape turns a literal '%' into %25), so no dataset name — sharded
// or not — can collide with another dataset's shard files.
func (c *indexCache) shardPath(name string, i int) string {
	return filepath.Join(c.dir, url.PathEscape(name)+fmt.Sprintf("%%shard-%d.tkdix", i))
}

// tryLoadStream restores a persisted index from path when the file exists
// and its header fingerprint matches fp, feeding the index stream to load.
// ok reports whether the rebuild was skipped; a missing or mismatched file
// is a miss (false, nil), a corrupt one surfaces its error so the caller
// can log it — either way the caller falls back to building.
func (c *indexCache) tryLoadStream(path string, fp uint64, load func(io.Reader) error) (ok bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return false, fmt.Errorf("server: index cache %s: %w", path, err)
	}
	if magic != cacheMagic {
		return false, nil // older or foreign format: rebuild
	}
	var got uint64
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return false, fmt.Errorf("server: index cache %s: %w", path, err)
	}
	if got != fp {
		return false, nil // data changed since the index was persisted
	}
	if err := load(br); err != nil {
		return false, fmt.Errorf("server: index cache %s: %w", path, err)
	}
	return true, nil
}

// saveStream persists an index stream under path with the fingerprint
// header, writing to a temp file and renaming so a concurrent reader or a
// crash mid-write never sees a torn file.
func (c *indexCache) saveStream(path string, fp uint64, save func(io.Writer) error) error {
	tmp, err := os.CreateTemp(c.dir, ".tkdix-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	if _, err := bw.Write(cacheMagic[:]); err != nil {
		tmp.Close()
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, fp); err != nil {
		tmp.Close()
		return err
	}
	if err := save(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// save persists ds's binned index (building it if needed).
func (c *indexCache) save(name string, ds *tkd.Dataset) error {
	return c.saveStream(c.path(name), ds.Fingerprint(), ds.SaveIndex)
}

// indexUnit is one persisted index file: its path, the fingerprint of the
// data it indexes, and the hooks that restore and serialize it.
type indexUnit struct {
	path string
	fp   uint64
	load func(io.Reader) error
	save func(io.Writer) error
}

// units lists the index files behind a query view; none when the cache is
// disabled. A dataset served directly (sd nil) has one. A sharded one has a
// file per shard with something to persist: in-process (remote shards warm
// on their peers) and non-empty (a zero-row shard — more shards than rows —
// has no index at all, and treating it as a cache error would leave a
// permanent phantom corruption signal on /metrics). Shard files are keyed
// by the shard's slice fingerprint, so a changed row range rebuilds while
// unchanged shards warm-load.
func (c *indexCache) units(name string, ds *tkd.Dataset, sd *tkd.ShardedDataset) []indexUnit {
	if c == nil {
		return nil
	}
	if sd == nil {
		return []indexUnit{{c.path(name), ds.Fingerprint(), ds.LoadIndex, ds.SaveIndex}}
	}
	var out []indexUnit
	for i := 0; i < sd.ShardCount(); i++ {
		rows, err := sd.ShardRows(i)
		if err != nil || rows == 0 || !sd.ShardIsLocal(i) {
			continue
		}
		fp, err := sd.ShardFingerprint(i)
		if err != nil {
			continue
		}
		out = append(out, indexUnit{
			path: c.shardPath(name, i),
			fp:   fp,
			load: func(r io.Reader) error { return sd.LoadShardIndex(i, r) },
			save: func(w io.Writer) error { return sd.SaveShardIndex(i, w) },
		})
	}
	return out
}

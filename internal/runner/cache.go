package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"latsim/internal/machine"
)

// Cache persists one JSON file per completed job under a directory,
// named by the job's content hash. Entries carry the schema version and
// the full job spec, so a reader can audit what produced a result and a
// version bump invalidates every stale entry (Load treats a mismatch as
// a miss, never an error).
//
// A size cap (OpenCacheLimited) turns the directory into an LRU: Load
// refreshes an entry's recency, and a Store that pushes the total past
// the cap evicts least-recently-used entries first. A cache directory
// shared by many runs would otherwise grow without bound. Recency is
// tracked in-process (seeded from file modification times at open), so
// eviction is exact for one process and approximate across several
// sharing the directory — the worst outcome either way is re-simulating
// an evicted job.
type Cache struct {
	dir string
	max int64 // byte cap; 0 = unbounded

	mu      sync.Mutex
	size    int64
	seq     int64
	entries map[string]*cacheStat // key -> size + recency
}

// cacheStat is the in-process bookkeeping for one on-disk entry.
type cacheStat struct {
	size int64
	seq  int64 // recency: larger = more recently used
}

// OpenCache creates the directory if needed and returns an unbounded
// cache over it.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheLimited(dir, 0)
}

// OpenCacheLimited is OpenCache with a total-size cap in bytes
// (0 = unbounded). Existing entries are inventoried at open, oldest
// first, and trimmed immediately if they already exceed the cap.
func OpenCacheLimited(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	c := &Cache{dir: dir, max: maxBytes, entries: map[string]*cacheStat{}}
	if err := c.inventory(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.evictLocked("")
	c.mu.Unlock()
	return c, nil
}

// inventory seeds the size and recency bookkeeping from the directory
// contents, ordering recency by file modification time.
func (c *Cache) inventory() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("runner: cache dir: %w", err)
	}
	type onDisk struct {
		key   string
		size  int64
		mtime int64
	}
	var files []onDisk
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		files = append(files, onDisk{
			key:   strings.TrimSuffix(name, ".json"),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].key < files[j].key
	})
	for _, f := range files {
		c.seq++
		c.entries[f.key] = &cacheStat{size: f.size, seq: c.seq}
		c.size += f.size
	}
	return nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Size returns the tracked on-disk size in bytes.
func (c *Cache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Len returns the tracked entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheEntry is the on-disk format.
type cacheEntry struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Job    Job             `json:"job"`
	Result *machine.Result `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Load returns the cached result for key and refreshes its recency.
// Unreadable, corrupt, mislabeled or schema-mismatched files are all
// treated as misses: the worst outcome of a bad cache file is
// re-simulating the job.
func (c *Cache) Load(key string) (*machine.Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false
	}
	if e.Schema != SchemaVersion || e.Key != key || e.Result == nil {
		return nil, false
	}
	c.touch(key, int64(len(b)))
	return e.Result, true
}

// touch marks key most recently used (adopting entries written by other
// processes sharing the directory).
func (c *Cache) touch(key string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if st, ok := c.entries[key]; ok {
		st.seq = c.seq
		return
	}
	c.entries[key] = &cacheStat{size: size, seq: c.seq}
	c.size += size
}

// Store writes the entry atomically (temp file + rename) so a crashed
// process or a concurrent run sharing the directory never leaves a torn
// file behind, then evicts least-recently-used entries while the cap is
// exceeded (never the entry just written).
func (c *Cache) Store(key string, j Job, res *machine.Result) error {
	b, err := json.Marshal(cacheEntry{Schema: SchemaVersion, Key: key, Job: j, Result: res})
	if err != nil {
		return fmt.Errorf("runner: encode %s: %w", j, err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		return err
	}
	c.mu.Lock()
	c.seq++
	if st, ok := c.entries[key]; ok {
		c.size += int64(len(b)) - st.size
		st.size = int64(len(b))
		st.seq = c.seq
	} else {
		c.entries[key] = &cacheStat{size: int64(len(b)), seq: c.seq}
		c.size += int64(len(b))
	}
	c.evictLocked(key)
	c.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used entries until the cache fits
// the cap, sparing keep (the entry that triggered the eviction). Called
// with c.mu held.
func (c *Cache) evictLocked(keep string) {
	if c.max <= 0 {
		return
	}
	for c.size > c.max {
		victim := ""
		var oldest int64
		for key, st := range c.entries {
			if key == keep {
				continue
			}
			if victim == "" || st.seq < oldest {
				victim, oldest = key, st.seq
			}
		}
		if victim == "" {
			return // only the spared entry remains; an oversized single entry stays
		}
		st := c.entries[victim]
		delete(c.entries, victim)
		c.size -= st.size
		// A failed remove (already gone, shared directory) is fine: the
		// bookkeeping stays conservative and the file is someone else's.
		os.Remove(c.path(victim))
	}
}

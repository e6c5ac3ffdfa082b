package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"latsim/internal/machine"
)

// Cache persists one JSON file per completed job under a directory,
// named by the job's content hash. Entries carry the schema version and
// the full job spec, so a reader can audit what produced a result and a
// version bump invalidates every stale entry (Load treats a mismatch as
// a miss, never an error).
type Cache struct {
	dir string
}

// OpenCache creates the directory if needed and returns a cache over it.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
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

// Load returns the cached result for key. Unreadable, corrupt,
// mislabeled or schema-mismatched files are all treated as misses: the
// worst outcome of a bad cache file is re-simulating the job.
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
	return e.Result, true
}

// Store writes the entry atomically (temp file + rename) so a crashed
// process or a concurrent run sharing the directory never leaves a torn
// file behind.
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
	return os.Rename(tmp.Name(), c.path(key))
}

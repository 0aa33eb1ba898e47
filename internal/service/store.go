package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the disk-backed result store: one file per finished sweep,
// named by the grid hash, holding the exact Result.JSON() bytes the run
// produced. A restarted server serves a stored grid without re-simulating
// — and byte-identically, because the file *is* the canonical report.
// Retention is bounded and rolling: past max files, the oldest
// (by modification time, then name) are evicted on the next Put.
type Store struct {
	mu  sync.Mutex
	dir string
	max int
}

// DefaultMaxStored bounds the store when NewStore's max is zero. Results
// are kilobytes to low megabytes each, so a few hundred keep a server's
// disk usage flat while still covering every recently explored grid.
const DefaultMaxStored = 256

// NewStore opens (creating if needed) a result store rooted at dir.
// max bounds retained results; 0 means DefaultMaxStored, negative means
// unbounded.
func NewStore(dir string, max int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating result store: %w", err)
	}
	if max == 0 {
		max = DefaultMaxStored
	}
	return &Store{dir: dir, max: max}, nil
}

// validHash reports whether id looks like a grid hash (lowercase hex),
// rejecting anything that could escape the store directory.
func validHash(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".json") }

// Put stores one finished sweep's canonical JSON bytes under its grid
// hash, atomically and durably (see writeDurable), then applies rolling
// eviction.
func (s *Store) Put(id string, data []byte) error {
	if !validHash(id) {
		return fmt.Errorf("service: invalid result id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeDurable(s.path(id), data); err != nil {
		return err
	}
	return s.evictLocked()
}

// writeDurable replaces path with data atomically and durably: a temp
// file in the same directory is written and fsynced, renamed over path,
// and the directory fsynced so the rename itself survives a crash.
func writeDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Get returns the stored bytes for a grid hash, if present.
func (s *Store) Get(id string) ([]byte, bool) {
	if !validHash(id) {
		return nil, false
	}
	b, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Len reports the number of stored results.
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// evictLocked removes the oldest stored results past the retention bound;
// the caller holds s.mu.
func (s *Store) evictLocked() error {
	if s.max < 0 {
		return nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	type stored struct {
		name string
		mod  int64
	}
	var files []stored
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, stored{e.Name(), info.ModTime().UnixNano()})
	}
	if len(files) <= s.max {
		return nil
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-s.max] {
		if err := os.Remove(filepath.Join(s.dir, f.name)); err != nil {
			return err
		}
	}
	return nil
}

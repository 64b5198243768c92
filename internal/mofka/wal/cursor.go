package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CursorStore is the small sidecar that persists consumer cursors next to a
// broker's event log, so Commit/LoadCursor survive restarts. The whole map
// is rewritten atomically (temp file + fsync + rename) on every update —
// cursors are tiny and commits are rare compared to appends, so simplicity
// wins over an incremental format.
type CursorStore struct {
	path string

	mu sync.Mutex
	m  map[string]uint64
}

// OpenCursorStore loads the cursor file at path, starting empty when it does
// not exist yet.
func OpenCursorStore(path string) (*CursorStore, error) {
	s := &CursorStore{path: path, m: make(map[string]uint64)}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open cursor store: %w", err)
	}
	if err := json.Unmarshal(b, &s.m); err != nil {
		return nil, fmt.Errorf("wal: corrupt cursor store %s: %w", path, err)
	}
	return s, nil
}

// Set records a cursor and persists the store durably.
func (s *CursorStore) Set(key string, next uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = next
	return s.flushLocked()
}

// Get returns a committed cursor.
func (s *CursorStore) Get(key string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// All returns a copy of every committed cursor.
func (s *CursorStore) All() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// flushLocked installs the map atomically over the store path, so a crash
// mid-write leaves the previous version intact.
func (s *CursorStore) flushLocked() error {
	b, err := json.Marshal(s.m)
	if err != nil {
		return fmt.Errorf("wal: encode cursors: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return fmt.Errorf("wal: cursor store dir: %w", err)
	}
	if err := WriteFileAtomic(s.path, b); err != nil {
		return fmt.Errorf("wal: install cursors: %w", err)
	}
	return nil
}

// WriteFileAtomic installs data at path so that a crash leaves either the
// previous file or the new one, never a torn mix: it writes a temp file in
// the same directory, fsyncs it, closes it, and renames it over path.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }() // no-op after the rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

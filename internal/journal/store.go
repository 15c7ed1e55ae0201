package journal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// segmentStore is where a journal keeps its checkpoint image and sealed
// routine chunks: the home's directory (DirStore), or whatever a test plugs
// in through Options.store. Put must publish atomically and durably — the
// caller truncates the log records an object covers right after it — and
// Get must fail with fs.ErrNotExist for a name never Put.
type segmentStore interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
}

// DirStore keeps each object in one file of a local directory, published
// with the write-tmp, fsync, rename, sync-dir dance so a crash mid-Put
// leaves either the old object or the new one.
type DirStore struct {
	Dir string
}

// Put atomically replaces the object under name.
func (s DirStore) Put(name string, data []byte) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("store: creating %s: %w", s.Dir, err)
	}
	tmp := filepath.Join(s.Dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.Dir, name)); err != nil {
		return fmt.Errorf("store: publishing %s: %w", name, err)
	}
	syncDir(s.Dir)
	return nil
}

// syncDir makes the renames and unlinks in dir durable. Best-effort: some
// filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Get returns the object's full contents, or an error satisfying
// errors.Is(err, fs.ErrNotExist) when it was never Put.
func (s DirStore) Get(name string) ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(s.Dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", name, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("store: reading %s: %w", name, err)
	}
	return buf, nil
}

// Delete removes the object, durably: the directory is synced after the
// unlink. Deleting a name that was never Put is not an error.
func (s DirStore) Delete(name string) error {
	err := os.Remove(filepath.Join(s.Dir, name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %s: %w", name, err)
	}
	if err == nil {
		syncDir(s.Dir)
	}
	return nil
}

// MoveTo durably moves the object into dst: rename, then sync both
// directories. Moving a name that is not here is not an error.
func (s DirStore) MoveTo(dst DirStore, name string) error {
	if err := os.MkdirAll(dst.Dir, 0o755); err != nil {
		return fmt.Errorf("store: creating %s: %w", dst.Dir, err)
	}
	if err := os.Rename(filepath.Join(s.Dir, name), filepath.Join(dst.Dir, name)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: moving %s: %w", name, err)
	}
	syncDir(dst.Dir)
	syncDir(s.Dir)
	return nil
}

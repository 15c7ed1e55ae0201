package journal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"safehome/internal/visibility"
)

// sealAll appends submit+finish batches for n routines and seals every full
// chunk of size sealSize, returning the count sealed.
func sealAll(t *testing.T, j *Journal, n, sealSize int) int {
	t.Helper()
	recs := make([]RoutineRecord, 0, n)
	for id := int64(1); id <= int64(n); id++ {
		fin := finishRec(id, visibility.StatusCommitted)
		if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(id)}, Finishes: []RoutineRecord{fin}}); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, fin)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	sealed := j.SealedRoutines()
	for sealed+sealSize <= n {
		idx := sealed / sealSize
		if err := j.SealChunk(idx, recs[sealed:sealed+sealSize]); err != nil {
			t.Fatal(err)
		}
		sealed += sealSize
	}
	return sealed
}

// TestSealedChunkCheckpointRecovery: a checkpoint that references sealed
// chunks carries only the unsealed tail, and recovery reassembles the dense
// 1..N history from chunks + tail image + WAL records after the checkpoint.
func TestSealedChunkCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	const total, sealSize = 600, 256
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sealed := sealAll(t, j.Journal, total, sealSize) // 512 of 600
	if sealed != 512 {
		t.Fatalf("sealed %d, want 512", sealed)
	}
	tail := make([]RoutineRecord, 0, total-sealed)
	for id := int64(sealed + 1); id <= total; id++ {
		tail = append(tail, finishRec(id, visibility.StatusCommitted))
	}
	if err := j.Checkpoint(&Checkpoint{Sealed: sealed, SealSize: sealSize, Routines: tail}); err != nil {
		t.Fatal(err)
	}
	if j.SealedRoutines() != sealed {
		t.Fatalf("SealedRoutines = %d after checkpoint, want %d", j.SealedRoutines(), sealed)
	}
	// One more routine after the checkpoint rides the WAL tail.
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(total + 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec == nil {
		t.Fatal("recovered nothing")
	}
	if len(rec.Routines) != total+1 {
		t.Fatalf("recovered %d routines, want %d", len(rec.Routines), total+1)
	}
	if rec.Sealed != sealed || rec.SealSize != sealSize {
		t.Fatalf("recovered Sealed/SealSize = %d/%d, want %d/%d", rec.Sealed, rec.SealSize, sealed, sealSize)
	}
	if j2.SealedRoutines() != sealed {
		t.Fatalf("reopened SealedRoutines = %d, want %d", j2.SealedRoutines(), sealed)
	}
	// replay's density check already ran; spot-check content at the chunk boundary.
	if rec.Routines[511].Status != "committed" || rec.Routines[512].ID != 513 {
		t.Fatalf("chunk boundary records wrong: %+v / %+v", rec.Routines[511], rec.Routines[512])
	}
	if rec.Routines[total].Status != visibility.StatusWaiting.String() {
		t.Fatalf("WAL-tail routine status = %s, want waiting", rec.Routines[total].Status)
	}
}

// TestSealedChunkMissingFailsRecovery: a checkpoint referencing a chunk the
// store lost must fail recovery loudly — silently dropping the prefix would
// break the dense-history invariant and resurrect a truncated past.
func TestSealedChunkMissingFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sealed := sealAll(t, j.Journal, 256, 256)
	if err := j.Checkpoint(&Checkpoint{Sealed: sealed, SealSize: 256}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(filepath.Join(dir, chunkName(0))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openOwned(t, dir, Options{}, WriterOptions{}); err == nil {
		t.Fatal("recovery with a missing sealed chunk succeeded")
	} else if !strings.Contains(err.Error(), "sealed chunk 0") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSealChunkRejectsOpenRoutine: sealed chunks are immutable, so a record
// that could still change (an open routine) must be refused.
func TestSealChunkRejectsOpenRoutine(t *testing.T) {
	j, _, err := openOwned(t, t.TempDir(), Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := []RoutineRecord{finishRec(1, visibility.StatusCommitted), submitRec(2)}
	if err := j.SealChunk(0, recs); err == nil {
		t.Fatal("sealed a chunk containing an open routine")
	}
}

// memStore is an in-memory SegmentStore standing in for an off-box object
// store in tests.
type memStore struct {
	mu      sync.Mutex
	objects map[string][]byte
	puts    int
}

func newMemStore() *memStore { return &memStore{objects: make(map[string][]byte)} }

func (s *memStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[name] = append([]byte(nil), data...)
	s.puts++
	return nil
}

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("memstore: %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), buf...), nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, name)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objects))
	for name := range s.objects {
		names = append(names, name)
	}
	return names, nil
}

// TestPluggableStoreHoldsCheckpoints: with a custom SegmentStore the
// checkpoint and sealed chunks live in the store — nothing but WAL segments
// and the lock on local disk — and recovery reads them back through it.
func TestPluggableStoreHoldsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	store := newMemStore()
	j, _, err := openOwned(t, dir, Options{store: store}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sealed := sealAll(t, j.Journal, 300, 256)
	tail := []RoutineRecord{}
	for id := int64(sealed + 1); id <= 300; id++ {
		tail = append(tail, finishRec(id, visibility.StatusCommitted))
	}
	if err := j.Checkpoint(&Checkpoint{Sealed: sealed, SealSize: 256, Routines: tail}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			t.Fatalf("checkpoint artifact %s on local disk despite custom store", e.Name())
		}
	}
	if _, err := store.Get(checkpointName); err != nil {
		t.Fatalf("store holds no checkpoint: %v", err)
	}
	if _, err := store.Get(chunkName(0)); err != nil {
		t.Fatalf("store holds no sealed chunk: %v", err)
	}

	j2, rec, err := openOwned(t, dir, Options{store: store}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec == nil || len(rec.Routines) != 300 {
		t.Fatalf("recovered %v routines through the store, want 300", rec)
	}
}

// TestDirStorePutIsAtomic: a DirStore Put replaces the object in one step
// and leaves no tmp debris behind.
func TestDirStorePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s := DirStore{Dir: dir}
	if err := s.Put("obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	buf, err := s.Get("obj")
	if err != nil || string(buf) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", buf, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "obj" {
		t.Fatalf("directory holds %v, %v; want [obj]", entries, err)
	}
	if err := s.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("obj"); err != nil {
		t.Fatalf("double delete errored: %v", err)
	}
	if _, err := s.Get("obj"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestBatchPrefixIsCanonical pins the prefix the recovery index reads on the
// bytes Append writes: a reorder of Batch's fields (or of encodeBatch) must
// fail here, not silently turn every record into a prefix miss (or worse) at
// recovery. Homes the index cannot vouch for — HTML-escaped or non-ASCII —
// must miss on the written bytes too.
func TestBatchPrefixIsCanonical(t *testing.T) {
	for _, c := range []struct {
		home  string
		after uint64 // the LSN a checkpoint leaves the journal at
		hit   bool
	}{
		{"h", 0, true},
		{"home-7", math.MaxUint64 - 1, true},
		{"a<b&c", 0, false},
		{"café", 41, false},
	} {
		dir := t.TempDir()
		if c.after > 0 {
			if err := (DirStore{Dir: dir}).Put(checkpointName, appendFrame(nil, []byte(`{"lsn":`+strconv.FormatUint(c.after, 10)+`,"first_seq":0}`))); err != nil {
				t.Fatal(err)
			}
		}
		j, _, err := Open(dir, Options{HomeID: c.home})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}, FirstSeq: 3}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		var payloads [][]byte
		for _, seg := range SegmentFiles(dir) {
			buf, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scanFrames(buf, func(p []byte) error {
				payloads = append(payloads, p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(payloads) != 1 {
			t.Fatalf("home %q: the log holds %d records, want the one appended", c.home, len(payloads))
		}
		payload, lsn := payloads[0], c.after+1
		quoted, _ := json.Marshal(c.home)
		want := []byte(`{"lsn":` + strconv.FormatUint(lsn, 10) + `,"home":` + string(quoted))
		if !bytes.HasPrefix(payload, want) {
			t.Fatalf("Append wrote %s, want prefix %s", payload, want)
		}
		gotLSN, gotHome, ok := recordIndex(payload)
		if ok != c.hit || (ok && (gotLSN != lsn || gotHome != c.home)) {
			t.Fatalf("recordIndex(%s) = %d, %q, %v; want %d, %q, %v", payload, gotLSN, gotHome, ok, lsn, c.home, c.hit)
		}
	}
}

// TestRecordIndexMissesFallBack: whatever the prefix reader cannot vouch for
// is left to DecodeBatch, and a hit whose body names another LSN or home is
// corrupt.
func TestRecordIndexMissesFallBack(t *testing.T) {
	misses := map[string]*Batch{
		"legacy frame without a home": {LSN: 3},
		"HTML-escaped home":           {LSN: 3, Home: "a<b&c"},
		"non-ASCII home":              {LSN: 3, Home: "café"},
		"escaped quote in home":       {LSN: 3, Home: `a"b`},
	}
	for name, b := range misses {
		payload, _ := json.Marshal(b)
		if _, _, ok := recordIndex(payload); ok {
			t.Errorf("%s: recordIndex(%s) answered; want a miss", name, payload)
		}
		if got, err := DecodeBatch(payload); err != nil || got.LSN != b.LSN || got.Home != b.Home {
			t.Errorf("%s: the fallback decode read %+v, %v", name, got, err)
		}
	}
	for _, odd := range []string{``, `{}`, `{"lsn":}`, `{"lsn":-1,"home":"a"}`, `{"lsn":1.5,"home":"a"}`,
		`{"lsn":99999999999999999999,"home":"a"}`, `{"lsn":1,"home":""}`, `{"lsn":1,"home":"a`, ` {"lsn":1,"home":"a"}`} {
		if lsn, home, ok := recordIndex([]byte(odd)); ok {
			t.Errorf("recordIndex(%s) = %d, %q; want a miss", odd, lsn, home)
		}
	}

	dup := []byte(`{"lsn":1,"home":"a","lsn":7}`)
	lsn, home, ok := recordIndex(dup)
	if !ok || lsn != 1 || home != "a" {
		t.Fatalf("recordIndex(%s) = %d, %q, %v", dup, lsn, home, ok)
	}
	if b, err := decodeIndexed(dup, lsn, home, nil); err == nil {
		t.Fatalf("a record indexed as LSN 1 that decodes as LSN %d was accepted", b.LSN)
	}
}

// plantStream writes records as the first segment of writer 0 of epoch 0
// under the wal root — a log as a crashed process left it.
func plantStream(t *testing.T, wal string, payloads ...[]byte) {
	t.Helper()
	dir := filepath.Join(wal, epochPrefix+"0", writerDirPrefix+"0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var img []byte
	for _, p := range payloads {
		img = appendFrame(img, p)
	}
	if err := os.WriteFile(filepath.Join(dir, sharedSegPrefix+"00000000"+segmentSuffix), img, 0o644); err != nil {
		t.Fatal(err)
	}
}

func batchPayload(t *testing.T, home string, lsn uint64, id int64) []byte {
	t.Helper()
	payload, err := json.Marshal(&Batch{LSN: lsn, Home: home, Submits: []RoutineRecord{submitRec(id)}})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// routineIDs lists a recovery's routine IDs (nil recovers none).
func routineIDs(rec *Recovered) []int64 {
	if rec == nil {
		return nil
	}
	var ids []int64
	for _, r := range rec.Routines {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestRottenRecordEndsOnlyItsHome: a record whose CRC holds but whose body
// does not decode ends replay for its own home at its LSN; the other homes
// of the stream keep every later record. The home's recovery cuts the branch
// behind the rot with a checkpoint at its highest LSN, so the home's fresh
// records never reuse an LSN of it, and no later crash replays it — not even
// once the fresh records' segments are gone.
func TestRottenRecordEndsOnlyItsHome(t *testing.T) {
	root := t.TempDir()
	wal := filepath.Join(root, "wal")
	rotten := []byte(`{"lsn":2,"home":"a","submits":[{"id":2,`)
	plantStream(t, wal,
		batchPayload(t, "a", 1, 1),
		batchPayload(t, "b", 1, 1),
		rotten,
		batchPayload(t, "b", 2, 2),
		batchPayload(t, "a", 3, 3), // behind the rot: never replayed
	)
	homeDir := func(h string) string { return filepath.Join(root, "homes", h) }

	stats := new(Stats)
	ws, err := OpenWriters(wal, 1, WriterOptions{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	jA, recA := openGroupJournal(t, homeDir("a"), "a", ws[0])
	jB, recB := openGroupJournal(t, homeDir("b"), "b", ws[0])
	if got := routineIDs(recA); len(got) != 1 || got[0] != 1 || recA.LSN != 3 {
		t.Fatalf("home a recovered routines %v at LSN %d; want [1], cut at the dead branch's LSN 3", got, recA.LSN)
	}
	if got := routineIDs(recB); len(got) != 2 || got[1] != 2 || recB.LSN != 2 {
		t.Fatalf("home b recovered routines %v; want [1 2] at LSN 2", got)
	}
	if got := stats.ScannedRecords.Load(); got != 5 {
		t.Errorf("boot scan read %d records, want all 5", got)
	}

	fresh := &Batch{Submits: []RoutineRecord{submitRec(2)}}
	fresh.Submits[0].Name = "fresh"
	if err := jA.Append(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.LSN != 4 {
		t.Fatalf("home a's next record got LSN %d, want 4, above the dead branch", fresh.LSN)
	}
	if err := jA.Commit(); err != nil {
		t.Fatal(err)
	}
	// A supervised rebuild reads the cut and the fresh record, not record 3.
	jA.Abandon()
	jA, recA = openGroupJournal(t, homeDir("a"), "a", ws[0])
	if got := routineIDs(recA); len(got) != 2 || recA.LSN != 4 || recA.Routines[1].Name != "fresh" {
		t.Fatalf("home a rebuilt with %+v; want [1 fresh-2] at LSN 4", recA)
	}
	if err := jA.Checkpoint(&Checkpoint{Routines: recA.Routines}); err != nil {
		t.Fatal(err)
	}
	jA.Abandon()
	jB.Abandon()
	ws[0].Abandon()

	// The fresh records' epoch is pruned, as its sealed segments would be
	// once every home in them checkpointed; the dead branch is still on disk
	// because home b never checkpointed.
	if err := os.RemoveAll(filepath.Join(wal, epochPrefix+"1")); err != nil {
		t.Fatal(err)
	}
	ws2, err := OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws2[0].Close()
	jA2, recA2 := openGroupJournal(t, homeDir("a"), "a", ws2[0])
	defer jA2.Close()
	if got := routineIDs(recA2); len(got) != 2 || recA2.LSN != 4 || recA2.Routines[1].Name != "fresh" {
		t.Fatalf("home a recovered %+v after the second crash; want [1 fresh-2] at LSN 4", recA2)
	}
}

// TestCutBranchIsPruned: the checkpoint that cuts a branch behind a rotten
// record covers the branch, so a segment holding nothing else is deleted by
// the recovery that cut it.
func TestCutBranchIsPruned(t *testing.T) {
	root := t.TempDir()
	wal := filepath.Join(root, "wal")
	plantStream(t, wal,
		batchPayload(t, "a", 1, 1),
		[]byte(`{"lsn":2,"home":"a","submits":[{"id":2,`),
		batchPayload(t, "a", 3, 3),
	)
	planted := segmentsIn(filepath.Join(wal, epochPrefix+"0", writerDirPrefix+"0"), sharedSegPrefix)
	ws, err := OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws[0].Close()
	j, rec := openGroupJournal(t, filepath.Join(root, "a"), "a", ws[0])
	defer j.Close()
	if got := routineIDs(rec); len(got) != 1 || rec.LSN != 3 {
		t.Fatalf("recovered routines %v at LSN %d; want [1] cut at LSN 3", got, rec.LSN)
	}
	if len(planted) != 1 {
		t.Fatalf("planted %v, want one segment", planted)
	}
	if _, err := os.Stat(planted[0]); !os.IsNotExist(err) {
		t.Errorf("the segment holding the cut branch survived the cut: %v", err)
	}
}

// TestRebuildDecodesOnlyItsOwnFrames: reopening one home on a writer whose
// active segment is full of another home's frames decodes that home's
// records only, and a home checkpointed past everything it wrote does not
// read the active segment at all.
func TestRebuildDecodesOnlyItsOwnFrames(t *testing.T) {
	root := t.TempDir()
	stats := new(Stats)
	ws, err := OpenWriters(filepath.Join(root, "wal"), 1, WriterOptions{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer ws[0].Close()
	dirA, dirB := filepath.Join(root, "a"), filepath.Join(root, "b")
	jA, _ := openGroupJournal(t, dirA, "a", ws[0])
	jB, _ := openGroupJournal(t, dirB, "b", ws[0])
	defer jB.Close()
	for i := int64(1); i <= 2; i++ {
		if err := jA.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 300; i++ {
		if err := jB.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jB.Commit(); err != nil {
		t.Fatal(err)
	}

	// A poisoned home's rebuild: the dead generation is abandoned, the next
	// one recovers from the live log.
	jA.Abandon()
	before := stats.DecodedRecords.Load()
	jA, recA := openGroupJournal(t, dirA, "a", ws[0])
	if got := stats.DecodedRecords.Load() - before; got != 2 {
		t.Errorf("rebuilding home a decoded %d records, want its own 2", got)
	}
	if got := routineIDs(recA); len(got) != 2 {
		t.Fatalf("home a rebuilt with routines %v, want 2", got)
	}

	// A wake: the home's final checkpoint covers all it wrote.
	if err := jA.Checkpoint(&Checkpoint{LSN: 2, Routines: recA.Routines}); err != nil {
		t.Fatal(err)
	}
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}
	scanned, decoded := stats.ScannedRecords.Load(), stats.DecodedRecords.Load()
	jA, _ = openGroupJournal(t, dirA, "a", ws[0])
	defer jA.Close()
	if s, d := stats.ScannedRecords.Load()-scanned, stats.DecodedRecords.Load()-decoded; s != 0 || d != 0 {
		t.Errorf("waking a checkpointed home scanned %d and decoded %d log records, want none", s, d)
	}
}

// TestRecoveryDecodesOnlyAboveCheckpoints: after a crash, the boot scan reads
// every record in the log, and recovery decodes exactly the records above
// each home's checkpoint — the ones it replays.
func TestRecoveryDecodesOnlyAboveCheckpoints(t *testing.T) {
	root := t.TempDir()
	wal := filepath.Join(root, "wal")
	homes := []struct {
		id             string
		ckpt, appended uint64
	}{{"a", 0, 4}, {"b", 5, 7}, {"c", 3, 3}, {"d", 2, 9}}
	ws, err := OpenWriters(wal, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total, above int64
	for i, h := range homes {
		j, _ := openGroupJournal(t, filepath.Join(root, h.id), h.id, ws[i%2])
		for lsn := uint64(1); lsn <= h.appended; lsn++ {
			if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(int64(lsn))}}); err != nil {
				t.Fatal(err)
			}
			if lsn == h.ckpt {
				var recs []RoutineRecord
				for id := int64(1); id <= int64(lsn); id++ {
					recs = append(recs, submitRec(id))
				}
				if err := j.Checkpoint(&Checkpoint{Routines: recs}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		j.Abandon()
		total += int64(h.appended)
		above += int64(h.appended - h.ckpt)
	}
	for _, w := range ws {
		w.Abandon()
	}

	stats := new(Stats)
	ws2, err := OpenWriters(wal, 2, WriterOptions{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range homes {
		j, rec := openGroupJournal(t, filepath.Join(root, h.id), h.id, ws2[i%2])
		if rec == nil || rec.LSN != h.appended || len(rec.Routines) != int(h.appended) {
			t.Fatalf("home %s recovered %+v, want %d routines", h.id, rec, h.appended)
		}
		j.Abandon()
	}
	for _, w := range ws2 {
		w.Abandon()
	}
	if got := stats.ScannedRecords.Load(); got != total {
		t.Errorf("scanned %d records, want all %d in the log", got, total)
	}
	if got := stats.DecodedRecords.Load(); got != above {
		t.Errorf("decoded %d records, want the %d above the homes' checkpoints", got, above)
	}
}

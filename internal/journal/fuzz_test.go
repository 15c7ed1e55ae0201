package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"safehome/internal/visibility"
)

func writeFile(dir, name string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// FuzzScanFrames drives the record codec with arbitrary bytes: frame parsing
// must never panic, and whatever payloads pass the CRC must decode (or be
// rejected) without panicking either — recovery runs this exact path on
// whatever a crash left on disk.
func FuzzScanFrames(f *testing.F) {
	// Seed with well-formed images: single batch, multiple batches, a
	// checkpoint frame, and an empty frame.
	batch, _ := json.Marshal(&Batch{
		LSN:      1,
		Submits:  []RoutineRecord{submitRec(1)},
		Finishes: []RoutineRecord{finishRec(1, visibility.StatusCommitted)},
		States:   []StateEntry{{Device: "plug-0", State: "ON"}},
		FirstSeq: 1,
		Events:   []EventRecord{{Kind: 5, Routine: 1, Detail: "committed"}},
	})
	ckpt, _ := json.Marshal(&Checkpoint{LSN: 9, Routines: []RoutineRecord{finishRec(1, visibility.StatusAborted)}})
	f.Add(appendFrame(nil, batch))
	f.Add(appendFrame(appendFrame(nil, batch), batch))
	f.Add(appendFrame(nil, ckpt))
	f.Add(appendFrame(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3})
	// A torn tail: a valid frame followed by a truncated one.
	torn := appendFrame(nil, batch)
	torn = append(torn, appendFrame(nil, batch)[:11]...)
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded int
		clean, err := scanFrames(data, func(payload []byte) error {
			// Both payload decoders must tolerate arbitrary CRC-valid bytes.
			if b, err := DecodeBatch(payload); err == nil && b != nil {
				_ = b.Empty()
			}
			if c, err := DecodeCheckpoint(payload); err == nil && c != nil {
				_ = len(c.Routines)
			}
			decoded++
			return nil
		})
		if err != nil {
			t.Fatalf("scanFrames callback error: %v", err)
		}
		if clean && decoded == 0 && len(data) > 0 {
			t.Fatalf("non-empty image scanned cleanly but decoded no frames")
		}
	})
}

// FuzzRecordIndex drives the recovery index's prefix reader with arbitrary
// payloads: it must never panic, and whenever it answers and DecodeBatch
// reads the payload too, either the two agree on LSN and home or the record
// lands in the corrupt-record rule (a payload that repeats a key). The
// canonical encoding of any batch must be read back exactly whenever the
// reader answers, and must be answered for plain printable-ASCII homes.
func FuzzRecordIndex(f *testing.F) {
	full, _ := json.Marshal(&Batch{LSN: 42, Home: "home-1", Submits: []RoutineRecord{submitRec(1)}, FirstSeq: 7})
	f.Add(full, uint64(42), "home-1")
	f.Add([]byte(`{"lsn":1,"home":"a","lsn":7}`), uint64(1), "a")
	f.Add([]byte(`{"lsn":1,"home":"a","home":"b"}`), uint64(0), "")
	f.Add([]byte(`{"lsn":3}`), uint64(3), "a<b")
	f.Add([]byte(`{"lsn":18446744073709551616,"home":"a"}`), uint64(18446744073709551615), "café")
	f.Add([]byte(`{"lsn":2,"home":"a","submits":[{"id":`), uint64(2), `a"b\c`)

	f.Fuzz(func(t *testing.T, payload []byte, lsn uint64, home string) {
		if l, h, ok := recordIndex(payload); ok {
			if b, err := DecodeBatch(payload); err == nil {
				d, derr := decodeIndexed(payload, l, h, nil)
				agree := b.LSN == l && b.Home == h
				if agree != (derr == nil) || (agree && (d.LSN != l || d.Home != h)) {
					t.Fatalf("index %d/%q, decode %d/%q: decodeIndexed = %v, %v", l, h, b.LSN, b.Home, d, derr)
				}
			}
		}

		canonical, err := json.Marshal(&Batch{LSN: lsn, Home: home})
		if err != nil {
			t.Skip()
		}
		l, h, ok := recordIndex(canonical)
		if ok && (l != lsn || h != home) {
			t.Fatalf("recordIndex(%s) = %d, %q; want %d, %q", canonical, l, h, lsn, home)
		}
		plain := home != ""
		for _, c := range []byte(home) {
			plain = plain && c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
		}
		if plain && !ok {
			t.Fatalf("recordIndex missed the canonical %s", canonical)
		}
	})
}

// FuzzRecoverDir feeds arbitrary bytes to a full directory recovery: a log
// segment and a checkpoint file of fuzzer-chosen contents must never panic
// Open, only ever yield (state, nil) or an error.
func FuzzRecoverDir(f *testing.F) {
	batch, _ := json.Marshal(&Batch{LSN: 1, Submits: []RoutineRecord{submitRec(1)}})
	ckpt, _ := json.Marshal(&Checkpoint{LSN: 0})
	f.Add(appendFrame(nil, batch), appendFrame(nil, ckpt))
	f.Add([]byte("not a journal"), []byte("not a checkpoint"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, seg, ck []byte) {
		dir := t.TempDir()
		logDir := filepath.Join(dir, walDir, epochPrefix+"0", writerDirPrefix+"0")
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			t.Skip()
		}
		if err := writeFile(logDir, sharedSegPrefix+"00000000"+segmentSuffix, seg); err != nil {
			t.Skip()
		}
		if len(ck) > 0 {
			if err := writeFile(dir, checkpointName, ck); err != nil {
				t.Skip()
			}
		}
		j, _, err := openOwned(t, dir, Options{Mode: ModeAsync, AsyncWindowBytes: -1}, WriterOptions{})
		if err == nil {
			j.Close()
		}
	})
}

// FuzzUpgradeHome feeds arbitrary bytes to the upgrade of a home directory:
// a sync-era wal-*.seg file and a checkpoint file (with or without a head)
// of fuzzer-chosen contents. UpgradeHome must never panic: it either plans a
// conversion or returns an error, and a converted directory opens at the
// LSN the conversion folded to.
func FuzzUpgradeHome(f *testing.F) {
	batch, _ := json.Marshal(&Batch{LSN: 1, Submits: []RoutineRecord{submitRec(1)}})
	headless, _ := json.Marshal(&Checkpoint{LSN: 0})
	headed, _ := checkpointFile(&Checkpoint{Head: Head{Home: "h"}})
	f.Add(appendFrame(nil, batch), appendFrame(nil, headless))
	f.Add(appendFrame(nil, batch), headed)
	f.Add([]byte("not a journal"), []byte("not a checkpoint"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, seg, ck []byte) {
		dir := t.TempDir()
		if err := writeFile(dir, "wal-0000000000000001.seg", seg); err != nil {
			t.Skip()
		}
		if len(ck) > 0 {
			if err := writeFile(dir, checkpointName, ck); err != nil {
				t.Skip()
			}
		}
		steps, err := UpgradeHome(dir, "h", FrozenHome{Model: "EV"})
		if err != nil {
			return
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("upgrade step: %v", err)
			}
		}
		h, err := ReadHead(dir, nil)
		if err != nil || h == nil {
			t.Fatalf("converted directory has head %+v, %v", h, err)
		}
		j, rec, err := openOwned(t, dir, Options{HomeID: h.Home}, WriterOptions{})
		if err != nil {
			t.Fatalf("converted directory does not open: %v", err)
		}
		j.Close()
		if rec == nil || rec.LSN != h.LSN {
			t.Fatalf("converted directory recovers %+v, head at LSN %d", rec, h.LSN)
		}
	})
}

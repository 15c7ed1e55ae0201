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

// FuzzRecoverDir feeds arbitrary bytes to a full directory recovery: a log
// segment, a legacy per-home segment and a checkpoint file of fuzzer-chosen
// contents must never panic Open, only ever yield (state, nil) or an error.
func FuzzRecoverDir(f *testing.F) {
	batch, _ := json.Marshal(&Batch{LSN: 1, Submits: []RoutineRecord{submitRec(1)}})
	ckpt, _ := json.Marshal(&Checkpoint{LSN: 0})
	f.Add(appendFrame(nil, batch), appendFrame(nil, ckpt))
	f.Add([]byte("not a journal"), []byte("not a checkpoint"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, seg, ck []byte) {
		dir := t.TempDir()
		logDir := filepath.Join(dir, privateWalDir, epochPrefix+"0", writerDirPrefix+"0")
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			t.Skip()
		}
		if err := writeFile(logDir, sharedSegPrefix+"00000000"+segmentSuffix, seg); err != nil {
			t.Skip()
		}
		if err := writeFile(dir, legacySegPrefix+"0000000000000001"+segmentSuffix, seg); err != nil {
			t.Skip()
		}
		if len(ck) > 0 {
			if err := writeFile(dir, checkpointName, ck); err != nil {
				t.Skip()
			}
		}
		j, _, err := Open(dir, Options{Mode: ModeAsync, AsyncWindowBytes: -1})
		if err == nil {
			j.Close()
		}
	})
}

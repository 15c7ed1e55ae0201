package journal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"safehome/internal/device"
)

// UpgradeHome plans the conversion of a home directory an older build left
// into the current format; it is the only reader of what those builds wrote.
// The steps publish one headed checkpoint (the old image with the records of
// the sync-era wal-*.seg files folded in), then delete the wal-*.seg files,
// journal.lock, home.json and frozen.json. A current directory needs none.
// The publish comes first and every step is idempotent, so a new plan after
// a crash at any step finishes the same conversion. The owner's log is not
// read: what a later build appended there continues the folded LSN.
//
// A checkpoint keeps its head. Without one, home.json names the home and its
// devices (else name does), frozen.json holds a frozen home's summary, and a
// home with no state at all gets fresh (no state and no home.json: no home).
// Folded records drop a summary, as the home ran after its freeze; one with
// no event cursor takes the image's.
func UpgradeHome(dir, name string, fresh FrozenHome) ([]func() error, error) {
	entries, err := os.ReadDir(dir)
	store, segs, steps := DirStore{Dir: dir}, []string(nil), []func() error(nil)
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, segmentSuffix) {
			segs = append(segs, n)
		} else if n != "journal.lock" && n != "home.json" && n != "frozen.json" {
			continue
		}
		steps = append(steps, func() error { return store.Delete(n) })
	}
	var frames [][]byte
	if err == nil {
		frames, err = checkpointFrames(store, dir)
	}
	ck := &Checkpoint{}
	switch {
	case err != nil || len(frames) == 2 && len(segs) == 0:
		return steps, err // current: only stray files of older builds go
	case len(frames) == 2:
		ck, err = loadCheckpoint(store, dir)
	case len(frames) == 1: // an image written before heads
		ck, err = DecodeCheckpoint(frames[0])
	case frames != nil:
		err = fmt.Errorf("journal: checkpoint for %s holds no image", dir)
	}
	if err != nil {
		return nil, err
	}
	h, stateless := ck.Head, frames == nil && len(segs) == 0
	if h.Home == "" {
		var meta struct {
			ID      string        `json:"id"`
			Devices []device.Info `json:"devices"`
		}
		for n, v := range map[string]any{"home.json": &meta, "frozen.json": &h.Frozen} {
			buf, err := os.ReadFile(filepath.Join(dir, n))
			if err == nil {
				err = json.Unmarshal(buf, v)
			}
			if err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("journal: reading %s of %s: %w", n, dir, err)
			}
		}
		if meta.ID == "" && stateless {
			return steps, nil
		}
		h.Home, h.Devices = cmp.Or(meta.ID, name), meta.Devices
		if h.Frozen == nil && stateless {
			h.Frozen = &fresh
		}
	}
	rec, err := (&Journal{dir: dir, store: store}).image(ck)
	var tail []*Batch
	for i := 0; err == nil && i < len(segs); i++ {
		var buf []byte
		if buf, err = os.ReadFile(filepath.Join(dir, segs[i])); err == nil {
			// A torn or rotten frame ends its segment (nothing past it there
			// was acknowledged); replay stops at the first LSN gap.
			_, _ = scanFrames(buf, func(payload []byte) error {
				b, err := DecodeBatch(payload)
				if err == nil {
					tail = append(tail, b)
				}
				return err
			})
		}
	}
	if err == nil {
		err = replay(rec, tail)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: upgrading %s: %w", dir, err)
	}
	if len(segs) > 0 {
		ck = checkpointOf(rec)
	}
	if rec.Replayed > 0 {
		h.Frozen = nil // the home ran after its freeze
	}
	if fr := h.Frozen; fr != nil && fr.NextSeq == 0 {
		fr.NextSeq = (&Recovered{FirstSeq: ck.FirstSeq, Events: ck.Events}).NextSeq()
	}
	ck.Head = h
	file, err := checkpointFile(ck)
	return append([]func() error{func() error { return store.Put(checkpointName, file) }}, steps...), err
}

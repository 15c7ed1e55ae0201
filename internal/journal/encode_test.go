package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/jsonenc"
	jt "safehome/internal/jsonenc/jsonenctest"
	"safehome/internal/routine"
)

// The differential tests of the record encoders: whatever a Batch,
// Checkpoint or sealed chunk holds, the framed payload must be what
// json.Marshal writes for it, and a value json.Marshal refuses must fail the
// encode.

// appendFrame appends one framed payload to dst — the frame the encoders
// write, built from json.Marshal's bytes.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// checkEncoder fails the test unless enc frames v exactly as appendFrame
// frames json.Marshal(v), or both refuse it.
func checkEncoder[T any](t testing.TB, v *T, enc func(*jsonenc.Buf, *T)) {
	t.Helper()
	want, merr := json.Marshal(v)
	var w jsonenc.Buf
	start := beginFrame(&w)
	enc(&w, v)
	err := endFrame(&w, start, "record")
	if (merr != nil) != (err != nil) {
		t.Fatalf("%T: encode error %v, json.Marshal error %v (value %+v)", v, err, merr, v)
	}
	if merr != nil {
		return
	}
	if !bytes.Equal(w.B, appendFrame(nil, want)) {
		t.Fatalf("%T: encoded\n   %q\nwant\n   %q", v, w.B[frameHeaderLen:], want)
	}
}

func checkBatch(t testing.TB, b *Batch)            { t.Helper(); checkEncoder(t, b, encodeBatch) }
func checkCheckpoint(t testing.TB, ck *Checkpoint) { t.Helper(); checkEncoder(t, ck, encodeCheckpoint) }
func checkChunk(t testing.TB, c *sealedChunk)      { t.Helper(); checkEncoder(t, c, encodeChunk) }

// --- generators -----------------------------------------------------------------

// genSlice returns nil, an empty slice, or one to three generated elements,
// so both omitempty branches and encoding/json's null-versus-[] split occur.
func genSlice[T any](rng *rand.Rand, gen func(*rand.Rand) T) []T {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	out := make([]T, 1+rng.Intn(3))
	for i := range out {
		out[i] = gen(rng)
	}
	return out
}

func genCommand(rng *rand.Rand) routine.Command {
	c := routine.Command{
		Device:     device.ID(jt.String(rng)),
		Target:     device.State(jt.String(rng)),
		Duration:   time.Duration(jt.Maybe(rng, jt.Int(rng))),
		BestEffort: rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		c.Condition = &routine.Condition{Device: device.ID(jt.String(rng)), Equals: device.State(jt.String(rng))}
	}
	return c
}

func genRoutine(rng *rand.Rand) RoutineRecord {
	return RoutineRecord{
		ID:          jt.Int(rng),
		Name:        jt.String(rng),
		User:        jt.Maybe(rng, jt.String(rng)),
		Commands:    genSlice(rng, genCommand),
		Status:      jt.String(rng),
		Submitted:   jt.Time(rng),
		Started:     jt.Maybe(rng, jt.Time(rng)),
		Finished:    jt.Maybe(rng, jt.Time(rng)),
		Executed:    int(jt.Maybe(rng, jt.Int(rng))),
		Skipped:     int(jt.Maybe(rng, jt.Int(rng))),
		BestEffort:  int(jt.Maybe(rng, jt.Int(rng))),
		RolledBack:  int(jt.Maybe(rng, jt.Int(rng))),
		AbortReason: jt.Maybe(rng, jt.String(rng)),
	}
}

func genState(rng *rand.Rand) StateEntry {
	return StateEntry{Device: device.ID(jt.String(rng)), State: device.State(jt.String(rng))}
}

func genEventRecord(rng *rand.Rand) EventRecord {
	return EventRecord{
		Time:    jt.Time(rng),
		Kind:    int(jt.Int(rng)),
		Routine: jt.Maybe(rng, jt.Int(rng)),
		Device:  jt.Maybe(rng, jt.String(rng)),
		State:   jt.Maybe(rng, jt.String(rng)),
		Detail:  jt.Maybe(rng, jt.String(rng)),
	}
}

func genBank(rng *rand.Rand) BankRecord {
	return BankRecord{Name: jt.String(rng), User: jt.Maybe(rng, jt.String(rng)), Commands: genSlice(rng, genCommand)}
}

func genTrigger(rng *rand.Rand) TriggerRecord {
	return TriggerRecord{
		Handle:   jt.Int(rng),
		Routine:  jt.String(rng),
		Interval: time.Duration(jt.Maybe(rng, jt.Int(rng))),
		NextFire: jt.Time(rng),
		Fired:    int(jt.Maybe(rng, jt.Int(rng))),
	}
}

func genBatch(rng *rand.Rand) *Batch {
	return &Batch{
		LSN:         uint64(jt.Int(rng)),
		Home:        jt.Maybe(rng, jt.String(rng)),
		Submits:     genSlice(rng, genRoutine),
		Finishes:    genSlice(rng, genRoutine),
		States:      genSlice(rng, genState),
		FirstSeq:    uint64(jt.Maybe(rng, jt.Int(rng))),
		Events:      genSlice(rng, genEventRecord),
		Bank:        genSlice(rng, genBank),
		TrigArms:    genSlice(rng, genTrigger),
		TrigCancels: genSlice(rng, jt.Int),
	}
}

func genCheckpoint(rng *rand.Rand) *Checkpoint {
	return &Checkpoint{
		LSN:         uint64(jt.Int(rng)),
		Sealed:      int(jt.Maybe(rng, jt.Int(rng))),
		SealSize:    int(jt.Maybe(rng, jt.Int(rng))),
		Routines:    genSlice(rng, genRoutine),
		States:      genSlice(rng, genState),
		FirstSeq:    uint64(jt.Maybe(rng, jt.Int(rng))),
		Events:      genSlice(rng, genEventRecord),
		Bank:        genSlice(rng, genBank),
		Triggers:    genSlice(rng, genTrigger),
		NextTrigger: jt.Maybe(rng, jt.Int(rng)),
	}
}

// --- tests ----------------------------------------------------------------------

func TestRecordEncodersMatchJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(20291))
	for i := 0; i < 3000; i++ {
		checkBatch(t, genBatch(rng))
		checkCheckpoint(t, genCheckpoint(rng))
		checkChunk(t, &sealedChunk{Index: int(jt.Int(rng)), Routines: genSlice(rng, genRoutine)})
	}
}

// TestRecordEncodersEdgeValues pins the cases the generator only reaches by
// chance: every zero value, nil against empty for the slices that are not
// omitempty, each string piece and integer edge in every string and integer
// position, and each time zone at the ends of RFC 3339's years.
func TestRecordEncodersEdgeValues(t *testing.T) {
	checkBatch(t, &Batch{})
	checkCheckpoint(t, &Checkpoint{})
	checkChunk(t, &sealedChunk{})
	checkChunk(t, &sealedChunk{Routines: []RoutineRecord{}})
	checkChunk(t, &sealedChunk{Routines: []RoutineRecord{{}, {Commands: []routine.Command{}}}})
	checkBatch(t, &Batch{Bank: []BankRecord{{}, {Commands: []routine.Command{{}}}}})

	for _, s := range jt.StringPieces {
		s2 := "x" + s + "y" + s
		cmd := routine.Command{Device: device.ID(s), Target: device.State(s2), Condition: &routine.Condition{Device: device.ID(s2), Equals: device.State(s)}}
		rec := RoutineRecord{Name: s, User: s2, Status: s, AbortReason: s2, Commands: []routine.Command{cmd}}
		checkBatch(t, &Batch{
			Home:     s2,
			Submits:  []RoutineRecord{rec},
			States:   []StateEntry{{Device: device.ID(s), State: device.State(s2)}},
			Events:   []EventRecord{{Device: s, State: s2, Detail: s}},
			Bank:     []BankRecord{{Name: s, User: s2, Commands: []routine.Command{cmd}}},
			TrigArms: []TriggerRecord{{Routine: s2}},
		})
	}
	for _, n := range jt.Ints {
		rec := RoutineRecord{ID: n, Executed: int(n), Skipped: int(n), BestEffort: int(n), RolledBack: int(n),
			Commands: []routine.Command{{Duration: time.Duration(n)}}}
		checkBatch(t, &Batch{LSN: uint64(n), FirstSeq: uint64(n), Finishes: []RoutineRecord{rec},
			Events: []EventRecord{{Kind: int(n), Routine: n}}, TrigArms: []TriggerRecord{{Handle: n, Interval: time.Duration(n), Fired: int(n)}},
			TrigCancels: []int64{n, n}})
		checkCheckpoint(t, &Checkpoint{LSN: uint64(n), Sealed: int(n), SealSize: int(n), FirstSeq: uint64(n), NextTrigger: n})
		checkChunk(t, &sealedChunk{Index: int(n), Routines: []RoutineRecord{rec}})
	}
	for _, loc := range jt.Zones {
		for _, year := range []int{-1, 0, 1, 2021, 9999, 10000} {
			when := time.Date(year, 1, 2, 3, 4, 5, 60, loc)
			checkBatch(t, &Batch{Submits: []RoutineRecord{{Submitted: when}}})
			checkBatch(t, &Batch{Finishes: []RoutineRecord{{Started: when}, {Finished: when}}})
			checkBatch(t, &Batch{Events: []EventRecord{{Time: when}}})
			checkCheckpoint(t, &Checkpoint{Triggers: []TriggerRecord{{NextFire: when}}})
		}
	}
}

// FuzzRecordEncoders drives the record encoders with fuzzer-chosen strings,
// integers and times against json.Marshal.
func FuzzRecordEncoders(f *testing.F) {
	f.Add("home-1", "plug-0", int64(3), int64(1619429400), int64(0), 0, uint8(0))
	f.Add(`a"b\c<d>&e`, "\x00\x1f\x7f\xff", int64(math.MinInt64), int64(-62135596800), int64(999999999), 19800, uint8(0xff))
	f.Add("\xe2\x80", "日本語", int64(math.MaxInt64), int64(253402300800), int64(1), -86400, uint8(0x55))
	f.Fuzz(func(t *testing.T, s1, s2 string, n, sec, nsec int64, zone int, flags uint8) {
		when := time.Unix(sec, nsec).In(time.FixedZone(s2, zone))
		on := func(bit uint8) bool { return flags&(1<<bit) != 0 }
		opt := func(bit uint8, tm time.Time) time.Time {
			if on(bit) {
				return tm
			}
			return time.Time{}
		}
		cmds := []routine.Command{{Device: device.ID(s1), Target: device.State(s2), Duration: time.Duration(n), BestEffort: on(0)}}
		if on(1) {
			cmds = append(cmds, routine.Command{Condition: &routine.Condition{Device: device.ID(s2), Equals: device.State(s1)}})
		}
		if on(2) {
			cmds = nil
		}
		rec := RoutineRecord{ID: n, Name: s1, User: s2, Commands: cmds, Status: s2, Submitted: when,
			Started: opt(3, when), Finished: opt(4, when.Add(time.Duration(n))),
			Executed: int(n), Skipped: int(n >> 3), BestEffort: int(n >> 9), RolledBack: int(-n), AbortReason: s1 + s2}
		ev := EventRecord{Time: when, Kind: int(n), Routine: n >> 5, Device: s1, State: s2, Detail: s2 + s1}
		trig := TriggerRecord{Handle: n, Routine: s1, Interval: time.Duration(n >> 2), NextFire: opt(5, when), Fired: int(n >> 11)}
		bank := BankRecord{Name: s2, User: s1, Commands: cmds}
		states := []StateEntry{{Device: device.ID(s1), State: device.State(s2)}}
		checkBatch(t, &Batch{LSN: uint64(n), Home: s1, Submits: []RoutineRecord{rec}, Finishes: []RoutineRecord{rec, rec},
			States: states, FirstSeq: uint64(sec), Events: []EventRecord{ev}, Bank: []BankRecord{bank},
			TrigArms: []TriggerRecord{trig}, TrigCancels: []int64{n, sec}})
		checkCheckpoint(t, &Checkpoint{LSN: uint64(sec), Sealed: int(n), SealSize: int(nsec), Routines: []RoutineRecord{rec},
			States: states, FirstSeq: uint64(n), Events: []EventRecord{ev, ev}, Bank: []BankRecord{bank},
			Triggers: []TriggerRecord{trig}, NextTrigger: n})
		checkChunk(t, &sealedChunk{Index: int(n), Routines: []RoutineRecord{rec}})
	})
}

// fixtureRoots are data directories older builds wrote, committed as upgrade
// fixtures: a sync-era home directory, a hub-era hub data directory and a
// marker-era manager data directory.
var fixtureRoots = []string{
	filepath.Join("testdata", "sync-era", "home"),
	filepath.Join("..", "hub", "testdata", "hub-era", "data"),
	filepath.Join("..", "manager", "testdata", "marker-era", "data"),
}

// TestFixtureFramesReencode decodes every frame of the committed fixtures —
// log records, checkpoints and sealed chunks, bytes real older builds wrote —
// and requires the encoders to write each payload back byte for byte.
func TestFixtureFramesReencode(t *testing.T) {
	frames := 0
	for _, root := range fixtureRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			name := d.Name()
			var reencode func(payload []byte) ([]byte, error)
			switch {
			case name == checkpointName:
				reencode = func(p []byte) ([]byte, error) { return reencodeWith(p, DecodeCheckpoint, encodeCheckpoint) }
			case strings.HasPrefix(name, chunkPrefix):
				reencode = func(p []byte) ([]byte, error) { return reencodeWith(p, decodeSealedChunk, encodeChunk) }
			case strings.HasSuffix(name, segmentSuffix):
				reencode = func(p []byte) ([]byte, error) { return reencodeWith(p, DecodeBatch, encodeBatch) }
			default:
				return nil
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			_, err = scanFrames(buf, func(payload []byte) error {
				frames++
				got, err := reencode(payload)
				if err != nil {
					t.Errorf("%s frame %d: %v", path, frames, err)
				} else if !bytes.Equal(got, payload) {
					t.Errorf("%s frame %d re-encodes as\n   %s\nwritten as\n   %s", path, frames, got, payload)
				}
				return nil
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if frames != 43 {
		t.Fatalf("the fixtures hold %d complete frames, want 43", frames)
	}
}

func reencodeWith[T any](payload []byte, decode func([]byte) (*T, error), enc func(*jsonenc.Buf, *T)) ([]byte, error) {
	v, err := decode(payload)
	if err != nil {
		return nil, err
	}
	var w jsonenc.Buf
	enc(&w, v)
	if w.Bad {
		return nil, errUnencodable
	}
	return w.B, nil
}

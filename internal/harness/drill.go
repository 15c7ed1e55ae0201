// Parameterized kill/recover drills: crash a journaled home runtime at a
// chosen instant — after acknowledgements, with routines in flight, mid
// mailbox batch, or mid checkpoint write — reopen the same data directory,
// and check the durability contract of the write-ahead journal:
// acknowledged ⇒ recovered identically, in flight ⇒ aborted with rollback,
// unacknowledged ⇒ absent. Each drill also measures recovery time against
// the journal tail it had to scan.
//
// Drills run under any durability tier (DrillParams.Journal.Mode), always
// owning the writer the way a hub process would: abandon it at the crash and
// reopen a fresh one (fresh epoch) for recovery. Sync and group mode assert
// the full contract above. Async mode acknowledges ahead of the
// disk, so its contract is weaker and the drill checks exactly that: after
// the crash every segment is truncated to its last fsync'd offset (the bytes
// an OS crash would really keep), and recovery must yield a dense prefix of
// the acknowledged history — identical where present (a routine whose outcome
// sat in the lost suffix comes back aborted, as in flight at the crash),
// never reordered, with the lost suffix bounded by the async window. Async
// drills support the post-ack crash point only.
package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	"safehome/internal/runtime"
	"safehome/internal/stats"
	"safehome/internal/visibility"
)

// CrashPoint selects the instant a drill kills the home.
type CrashPoint int

const (
	// CrashPostAck crashes after every submitted routine committed and was
	// acknowledged — the pure "nothing may be lost" case.
	CrashPostAck CrashPoint = iota
	// CrashInFlight crashes with long routines accepted (acknowledged as
	// submitted) but still executing — they must recover as aborted.
	CrashInFlight
	// CrashMidBatch crashes with submissions parked in the mailbox behind a
	// suspended loop — never acknowledged, so they must not recover.
	CrashMidBatch
	// CrashMidCheckpoint crashes post-ack and additionally simulates death
	// midway through a checkpoint rewrite (a garbage checkpoint.tmp) plus a
	// torn frame at the newest segment's tail; recovery must ignore both.
	CrashMidCheckpoint
	// CrashPanic kills the home with a software fault instead of a process
	// kill: a panic injected into the loop goroutine, with long routines
	// still executing. The runtime must isolate the panic (poison the home,
	// record the panic error, release the journal) and recovery must see
	// exactly the crash contract — acked intact, in flight aborted.
	CrashPanic
	// CrashMidFreeze kills the process in hibernation's dangerous window: a
	// home frozen once, woken, with work acknowledged since the wake, dies
	// in its next freeze before that freeze's final checkpoint lands. The
	// disk then holds the earlier freeze's summary with acknowledged records
	// above it — the next boot must find the home not frozen (the summary
	// is stale) and recover it live and exactly.
	CrashMidFreeze
	// CrashPostFreeze kills the process right after a clean hibernation:
	// the final checkpoint, headed by the frozen summary, is durable.
	// Recovery is the wake path: the home must read as frozen with a
	// faithful summary, the woken home must hold every acknowledged result
	// and state exactly, and — since a wake writes nothing — it must still
	// read as frozen until it appends.
	CrashPostFreeze
)

func (p CrashPoint) String() string {
	switch p {
	case CrashPostAck:
		return "post-ack"
	case CrashInFlight:
		return "in-flight"
	case CrashMidBatch:
		return "mid-batch"
	case CrashMidCheckpoint:
		return "mid-checkpoint"
	case CrashPanic:
		return "crash-panic"
	case CrashMidFreeze:
		return "mid-freeze"
	case CrashPostFreeze:
		return "post-freeze"
	default:
		return fmt.Sprintf("crash-point(%d)", int(p))
	}
}

// DrillParams configures one kill/recover drill.
type DrillParams struct {
	// Dir is the journal data directory (required; use a fresh temp dir).
	Dir string
	// Point selects the crash instant.
	Point CrashPoint
	// Acked is the number of routines driven to commit before the crash
	// (default 8).
	Acked int
	// InFlight is the number of long routines left executing at the crash
	// (CrashInFlight only; default 2).
	InFlight int
	// Unacked is the number of submissions parked in the mailbox at the
	// crash (CrashMidBatch only; default 4).
	Unacked int
	// Devices is the fleet size (default 16).
	Devices int
	// Scheduler is the EV scheduling policy (default TL).
	Scheduler visibility.SchedulerKind
	// Journal tunes segment rotation, checkpoint cadence and the durability
	// tier (Journal.Mode: sync, group or async); the zero value uses the
	// journal package defaults with sync durability. The drill owns the
	// writer the home appends through; in async mode only CrashPostAck is
	// supported and the drill verifies the bounded-loss contract instead of
	// exact recovery.
	Journal journal.Options
	// Seed drives the generated routines.
	Seed int64
}

func (p DrillParams) normalized() DrillParams {
	if p.Acked <= 0 {
		p.Acked = 8
	}
	if p.InFlight <= 0 {
		p.InFlight = 2
	}
	if p.Unacked <= 0 {
		p.Unacked = 4
	}
	if p.Devices <= 0 {
		p.Devices = 16
	}
	return p
}

// DrillReport is one drill's outcome: what the home held at the crash, what
// recovery cost, and any contract violations.
type DrillReport struct {
	Point    CrashPoint
	Acked    int
	InFlight int
	Unacked  int
	// TailBytes is the total size of the journal segments recovery scanned.
	TailBytes int64
	// RecoveryTime is the wall time of reopening the home from the journal.
	RecoveryTime time.Duration
	// Recovered is the number of results present after recovery.
	Recovered int
	// LostBytes is how much acknowledged journal tail the simulated OS crash
	// discarded (async mode only; must stay within the async window).
	LostBytes int64
	// Violations lists durability-contract breaches (empty = drill passed).
	Violations []Violation
}

func (r DrillReport) String() string {
	return fmt.Sprintf("%-14s acked=%-3d inflight=%-2d unacked=%-2d tail=%-8d recovery=%-12v violations=%d",
		r.Point, r.Acked, r.InFlight, r.Unacked, r.TailBytes, r.RecoveryTime, len(r.Violations))
}

// drillRoutine builds a short routine over the drill fleet.
func drillRoutine(rng *stats.RNG, devices int, name string, dur time.Duration) *routine.Routine {
	r := routine.New(name)
	n := 1 + rng.Intn(3)
	for c := 0; c < n; c++ {
		target := device.On
		if rng.Bool(0.5) {
			target = device.Off
		}
		r.Commands = append(r.Commands, routine.Command{
			Device:   device.ID(fmt.Sprintf("plug-%d", rng.Intn(devices))),
			Target:   target,
			Duration: dur,
		})
	}
	return r
}

// pumpDry pumps a paced-clock runtime far into the future until no routine
// is pending (or the wall-clock deadline passes).
func pumpDry(rt *runtime.HomeRuntime, deadline time.Time) error {
	for rt.PendingCount() > 0 {
		rt.PumpIfDue(time.Now().Add(24 * time.Hour))
		if time.Now().After(deadline) {
			return errors.New("harness: drill routines never finished under pumping")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// journalTailBytes sums the sizes of the journal's segment files.
func journalTailBytes(dir string) (int64, error) {
	segs, err := journal.SegmentFiles(dir)
	var total int64
	for _, path := range segs {
		if info, err := os.Stat(path); err == nil {
			total += info.Size()
		}
	}
	return total, err
}

// truncateUnsynced simulates the OS view after a machine crash in async
// mode: every segment keeps exactly the bytes covered by its last fsync
// (segments never synced keep nothing). Returns how many bytes were cut.
func truncateUnsynced(dir string, synced map[string]int64) (int64, error) {
	segs, err := journal.SegmentFiles(dir)
	var lost int64
	for _, path := range segs {
		info, err := os.Stat(path)
		if err != nil {
			return lost, err
		}
		keep := synced[path]
		if info.Size() <= keep {
			continue
		}
		if err := os.Truncate(path, keep); err != nil {
			return lost, err
		}
		lost += info.Size() - keep
	}
	return lost, err
}

// openLog opens the one-writer fleet under dir/wal that a drill's home
// appends through. A drill plays the process that owns dir in every tier:
// it abandons the writer at a crash (no final sync: only fsync-covered
// bytes survive a kill) and opens a fresh one (a fresh epoch) to recover.
// onSync, when non-nil, is the writer's WriterOptions.OnSync.
func openLog(dir string, mode journal.Mode, onSync func(string, int64)) (*journal.GroupWriter, error) {
	wopts := journal.WriterOptionsFor(mode)
	wopts.OnSync = onSync
	ws, err := journal.OpenWriters(filepath.Join(dir, "wal"), 1, wopts)
	if err != nil {
		return nil, fmt.Errorf("harness: drill writer: %w", err)
	}
	return ws[0], nil
}

// RunDrill executes one kill/recover drill and verifies the durability
// contract on the recovered home.
func RunDrill(p DrillParams) (DrillReport, error) {
	p = p.normalized()
	if p.Dir == "" {
		return DrillReport{}, errors.New("harness: drill needs a data dir")
	}
	mode := journal.ResolveMode(p.Journal, journal.ModeSync)
	if mode == journal.ModeAsync && p.Point != CrashPostAck {
		return DrillReport{}, fmt.Errorf("harness: async drills support the post-ack crash point only, not %v", p.Point)
	}
	rng := stats.NewRNG(p.Seed)

	jopts := p.Journal
	jopts.Mode = mode

	// Async: record each segment's last fsync'd offset so the crash below can
	// cut the files back to what an OS crash would really have kept.
	var syncMu sync.Mutex
	syncedBytes := make(map[string]int64)
	var onSync func(string, int64)
	if mode == journal.ModeAsync {
		onSync = func(path string, n int64) {
			syncMu.Lock()
			syncedBytes[path] = n
			syncMu.Unlock()
		}
	}

	w, err := openLog(p.Dir, mode, onSync)
	if err != nil {
		return DrillReport{}, err
	}
	jopts.Writer = w

	cfg := runtime.Config{
		ID:        "drill",
		Clock:     runtime.ClockPaced,
		Model:     visibility.EV,
		Scheduler: p.Scheduler,
		EventLog:  256,
		DataDir:   p.Dir,
		Journal:   jopts,
	}
	reg := device.Plugs(p.Devices)
	rt, err := runtime.NewSim(cfg, reg)
	if err != nil {
		w.Abandon()
		return DrillReport{}, err
	}
	crash := func() {
		rt.Crash()
		w.Abandon()
	}

	rep := DrillReport{Point: p.Point, Acked: p.Acked}

	// Phase 1 (all points): commit and acknowledge a batch of short routines.
	var ackedResults []visibility.Result
	var ackedStates map[device.ID]device.State
	ack := func(prefix string) error {
		for i := 0; i < p.Acked; i++ {
			r := drillRoutine(rng, p.Devices, fmt.Sprintf("%s-%03d", prefix, i), time.Duration(1+rng.Intn(20))*time.Second)
			if _, err := rt.Submit(r); err != nil {
				return fmt.Errorf("harness: drill submit: %w", err)
			}
		}
		err := pumpDry(rt, time.Now().Add(10*time.Second))
		ackedResults, ackedStates = rt.Results(), rt.CommittedStates()
		return err
	}
	if err := ack("acked"); err != nil {
		return rep, err
	}

	// Phase 2: put the home in the crash-point state.
	var inFlightIDs []routine.ID
	var unackedErrs []error
	if p.Point == CrashInFlight || p.Point == CrashPanic {
		rep.InFlight = p.InFlight
		for i := 0; i < p.InFlight; i++ {
			r := drillRoutine(rng, p.Devices, fmt.Sprintf("inflight-%02d", i), time.Hour)
			rid, err := rt.Submit(r)
			if err != nil {
				return rep, fmt.Errorf("harness: drill in-flight submit: %w", err)
			}
			inFlightIDs = append(inFlightIDs, rid)
		}
		// A small pump starts execution without finishing the hour-long
		// holds: the crash lands mid-routine, not merely mid-queue.
		rt.PumpIfDue(time.Now().Add(time.Second))
	}
	switch p.Point {
	case CrashInFlight:
		crash()

	case CrashPanic:
		// Die by software fault instead of process kill: the panic lands in
		// the loop goroutine, whose recovery must poison the home rather
		// than unwind the process.
		rt.PostTimer(func() { panic("harness: injected fault") })
		for deadline := time.Now().Add(5 * time.Second); !rt.Poisoned(); {
			if time.Now().After(deadline) {
				return rep, errors.New("harness: injected panic never poisoned the home")
			}
			time.Sleep(time.Millisecond)
		}
		if rt.PanicError() == nil {
			rep.Violations = append(rep.Violations, Violation{"panic-unrecorded",
				"poisoned home records no panic error"})
		}
		// Close joins the already-dead loop; the poison teardown released the
		// journal, so recovery below reopens the same directory.
		rt.Close()
		w.Abandon()

	case CrashMidBatch:
		rep.Unacked = p.Unacked
		resume, err := rt.Suspend()
		if err != nil {
			return rep, fmt.Errorf("harness: drill suspend: %w", err)
		}
		// With the loop parked, the submissions below queue in the mailbox
		// and block; the crash must answer every one of them ErrClosed.
		var wg sync.WaitGroup
		errs := make([]error, p.Unacked)
		for i := 0; i < p.Unacked; i++ {
			r := drillRoutine(rng, p.Devices, fmt.Sprintf("unacked-%02d", i), time.Second)
			wg.Add(1)
			go func(i int, r *routine.Routine) {
				defer wg.Done()
				_, errs[i] = rt.Submit(r)
			}(i, r)
		}
		for deadline := time.Now().Add(5 * time.Second); rt.Mailbox().Depth < p.Unacked; {
			if time.Now().After(deadline) {
				resume()
				return rep, errors.New("harness: drill submissions never queued")
			}
			time.Sleep(time.Millisecond)
		}
		crashDone := make(chan struct{})
		go func() { crash(); close(crashDone) }()
		// Crash closes the mailbox immediately but blocks until the loop
		// exits, which needs the resume below.
		time.Sleep(10 * time.Millisecond)
		resume()
		<-crashDone
		wg.Wait()
		unackedErrs = errs

	case CrashMidCheckpoint:
		crash()
		// Death mid-checkpoint: a half-written checkpoint.tmp that rename
		// never promoted, plus a torn frame at the newest segment's tail.
		if err := os.WriteFile(filepath.Join(p.Dir, "checkpoint.tmp"), []byte("torn checkpoint garbage"), 0o644); err != nil {
			return rep, err
		}
		segs, err := journal.SegmentFiles(p.Dir)
		if err != nil {
			return rep, err
		}
		if len(segs) > 0 {
			f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return rep, err
			}
			if _, err := f.Write([]byte{0x17, 0x2a, 0x00, 0xfe, 0x9b}); err != nil {
				f.Close()
				return rep, err
			}
			f.Close()
		}

	case CrashPostFreeze:
		// Freeze runs the graceful close — lineage compaction, trigger
		// retirement, final flush and the checkpoint that carries the
		// summary — and returns once it is durable; the process dies right
		// after.
		if _, err := rt.Freeze(); err != nil {
			return rep, fmt.Errorf("harness: drill freeze: %w", err)
		}
		w.Abandon()

	case CrashMidFreeze:
		// Freeze, wake in the same process, acknowledge more work, and die
		// in the next freeze before its checkpoint lands: on disk that is a
		// crash of the woken home, the new records above the first freeze's
		// summary.
		if _, err := rt.Freeze(); err != nil {
			return rep, fmt.Errorf("harness: drill freeze: %w", err)
		}
		if rt, err = runtime.NewSim(cfg, reg); err != nil {
			return rep, fmt.Errorf("harness: drill wake: %w", err)
		}
		if err := ack("woken"); err != nil {
			return rep, err
		}
		rep.Acked = len(ackedResults)
		crash()

	default: // CrashPostAck
		crash()
	}

	// Async: the home acknowledged ahead of the disk; simulate the machine
	// crash by discarding every byte the kernel had not yet fsync'd.
	if mode == journal.ModeAsync {
		lost, err := truncateUnsynced(p.Dir, syncedBytes)
		if err != nil {
			return rep, fmt.Errorf("harness: drill async truncate: %w", err)
		}
		rep.LostBytes = lost
		window := jopts.AsyncWindowBytes
		if window == 0 {
			window = journal.DefaultAsyncWindowBytes
		}
		if window >= 0 && lost > window {
			rep.Violations = append(rep.Violations, Violation{"async-over-window",
				fmt.Sprintf("crash lost %d acknowledged bytes, async window allows %d", lost, window)})
		}
	}

	// Phase 3: reopen and verify. A restart means a new process image: a
	// fresh writer (fresh epoch) that recovery tails the old epochs through.
	// Its Close is deferred before the runtime's so it runs after — homes
	// detach before the writer goes away.
	if rep.TailBytes, err = journalTailBytes(p.Dir); err != nil {
		return rep, err
	}
	if w, err = openLog(p.Dir, mode, onSync); err != nil {
		return rep, err
	}
	defer w.Close()
	cfg.Journal.Writer = w

	// Freeze points: the record on disk must say frozen exactly when the
	// freeze's checkpoint landed — never over acknowledged work above it.
	frozenOnDisk := func() *journal.FrozenHome {
		if head, _ := journal.ReadHead(p.Dir, func(string) *journal.GroupWriter { return w }); head != nil {
			return head.Frozen
		}
		return nil
	}
	switch fr := frozenOnDisk(); {
	case p.Point == CrashMidFreeze && fr != nil:
		rep.Violations = append(rep.Violations, Violation{"stale-frozen-claim",
			"the record claims frozen over work acknowledged after the freeze"})
	case p.Point == CrashPostFreeze && fr == nil:
		rep.Violations = append(rep.Violations, Violation{"frozen-record-lost",
			"clean hibernation left no frozen summary in the record"})
	case p.Point == CrashPostFreeze && fr.Routines != len(ackedResults):
		rep.Violations = append(rep.Violations, Violation{"frozen-record-diverged",
			fmt.Sprintf("frozen summary reports %d routines, %d were acknowledged", fr.Routines, len(ackedResults))})
	}

	begin := time.Now()
	rec, err := runtime.NewSim(cfg, device.Plugs(p.Devices))
	rep.RecoveryTime = time.Since(begin)
	if err != nil {
		return rep, fmt.Errorf("harness: drill recovery: %w", err)
	}
	defer rec.Close()

	results := rec.Results()
	rep.Recovered = len(results)
	byID := make(map[routine.ID]visibility.Result, len(results))
	for _, res := range results {
		byID[res.ID] = res
	}

	// Acknowledged ⇒ recovered with the identical outcome. Async weakens this
	// to: the recovered home is the acknowledged history cut at some batch —
	// the crash may drop the tail (within the window, checked above) but may
	// never lose a routine that a later recovered one depends on, reorder, or
	// rewrite an outcome. A routine whose submission survived the cut while
	// its outcome did not was, as far as the disk knows, in flight at the
	// crash: recovery aborts it. Outcomes are journaled in finish order, so
	// the routines that kept theirs must be the ones that finished first.
	diverged := func(have, want visibility.Result) {
		rep.Violations = append(rep.Violations, Violation{"acked-diverged",
			fmt.Sprintf("routine %d recovered as {%v exec=%d fin=%v %q}, acknowledged {%v exec=%d fin=%v %q}",
				want.ID, have.Status, have.Executed, have.Finished, have.AbortReason,
				want.Status, want.Executed, want.Finished, want.AbortReason)})
	}
	same := func(have, want visibility.Result) bool {
		return have.Status == want.Status && have.Executed == want.Executed &&
			have.Finished.Equal(want.Finished) && have.AbortReason == want.AbortReason
	}
	outcomesCut := 0
	if mode == journal.ModeAsync {
		acked := append([]visibility.Result(nil), ackedResults...)
		sort.Slice(acked, func(i, j int) bool { return acked[i].ID < acked[j].ID })
		recd := append([]visibility.Result(nil), results...)
		sort.Slice(recd, func(i, j int) bool { return recd[i].ID < recd[j].ID })
		if len(recd) > len(acked) {
			rep.Violations = append(rep.Violations, Violation{"async-not-prefix",
				fmt.Sprintf("recovered %d results, only %d were acknowledged", len(recd), len(acked))})
			recd = nil
		}
		var lastKept, firstCut time.Time
		for i, have := range recd {
			want := acked[i]
			if have.ID != want.ID {
				rep.Violations = append(rep.Violations, Violation{"async-not-prefix",
					fmt.Sprintf("recovered history has routine %d at position %d, acknowledged order has %d — a hole or reorder", have.ID, i, want.ID)})
				break
			}
			switch {
			case same(have, want):
				if want.Finished.After(lastKept) {
					lastKept = want.Finished
				}
			case have.Status == visibility.StatusAborted && want.Status != visibility.StatusAborted:
				outcomesCut++
				if firstCut.IsZero() || want.Finished.Before(firstCut) {
					firstCut = want.Finished
				}
			default:
				diverged(have, want)
			}
		}
		if outcomesCut > 0 && lastKept.After(firstCut) {
			rep.Violations = append(rep.Violations, Violation{"async-not-prefix",
				fmt.Sprintf("an outcome acknowledged at %v survived the crash while one acknowledged at %v did not", lastKept, firstCut)})
		}
	} else {
		for _, want := range ackedResults {
			have, ok := byID[want.ID]
			if !ok {
				rep.Violations = append(rep.Violations, Violation{"lost-acked",
					fmt.Sprintf("acknowledged routine %d missing after recovery", want.ID)})
			} else if !same(have, want) {
				diverged(have, want)
			}
		}
	}
	// In flight ⇒ aborted.
	for _, rid := range inFlightIDs {
		have, ok := byID[rid]
		if !ok {
			rep.Violations = append(rep.Violations, Violation{"lost-inflight",
				fmt.Sprintf("accepted in-flight routine %d missing after recovery", rid)})
			continue
		}
		if have.Status != visibility.StatusAborted {
			rep.Violations = append(rep.Violations, Violation{"inflight-not-aborted",
				fmt.Sprintf("in-flight routine %d recovered as %v, want aborted", rid, have.Status)})
		}
	}
	// Unacknowledged ⇒ absent: every parked submission was answered
	// ErrClosed, and the recovered history holds exactly the acknowledged
	// (plus in-flight) routines.
	for i, err := range unackedErrs {
		if err == nil {
			rep.Violations = append(rep.Violations, Violation{"unacked-acked",
				fmt.Sprintf("parked submission %d was acknowledged during the crash", i)})
		} else if !errors.Is(err, runtime.ErrClosed) {
			rep.Violations = append(rep.Violations, Violation{"unacked-error",
				fmt.Sprintf("parked submission %d failed with %v, want ErrClosed", i, err)})
		}
	}
	// Async recovery legitimately holds a shorter history; the prefix check
	// above already pinned its exact shape.
	if want := len(ackedResults) + len(inFlightIDs); mode != journal.ModeAsync && len(results) != want {
		rep.Violations = append(rep.Violations, Violation{"recovered-count",
			fmt.Sprintf("recovered %d results, want %d", len(results), want)})
	}
	if n := rec.PendingCount(); n != 0 {
		rep.Violations = append(rep.Violations, Violation{"pending-after-recovery",
			fmt.Sprintf("%d routines still pending after recovery", n)})
	}
	// Committed states: aborted in-flight routines rolled back, so the
	// recovered committed view matches the acknowledged one exactly. With an
	// async tail cut the states reflect the recovered prefix, so the exact
	// comparison only applies when nothing was lost.
	if mode != journal.ModeAsync || (len(results) == len(ackedResults) && outcomesCut == 0) {
		recStates := rec.CommittedStates()
		for d, s := range ackedStates {
			if recStates[d] != s {
				rep.Violations = append(rep.Violations, Violation{"state-diverged",
					fmt.Sprintf("committed state of %s = %q after recovery, acknowledged %q", d, recStates[d], s)})
			}
		}
	}
	if !rec.Durable() {
		rep.Violations = append(rep.Violations, Violation{"not-durable",
			fmt.Sprintf("recovered home reports journal error: %v", rec.JournalError())})
	}
	// A wake writes nothing: until the woken home appends, a crash would
	// bring it back cold with the same state.
	if p.Point == CrashPostFreeze && frozenOnDisk() == nil {
		rep.Violations = append(rep.Violations, Violation{"wake-thawed-record",
			"the woken home is not frozen on disk before its first append"})
	}
	return rep, nil
}

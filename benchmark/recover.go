package main

// recover: the paths the steady-state workloads never touch — journal decode
// and replay, checkpoint load, and the manager's freeze/wake path. Set-up
// loads a journaled fleet and kills every home without a graceful drain;
// the timed part is a fresh manager recovering it, then first-touch wakes
// of homes frozen with real history.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// homeTruth is what one home must look like after recovery: every routine id
// a caller was acknowledged, with the status it had, and the committed state
// of every device.
type homeTruth struct {
	acked  map[routine.ID]bool
	status map[routine.ID]visibility.RoutineStatus
	states map[device.ID]device.State
}

// crashedFleet is the output of recover's set-up: a data directory whose
// manager died mid-flight, plus the truth to hold recovery to.
type crashedFleet struct {
	dir      string
	truth    [numHomes]homeTruth
	routines int
}

// loadAndCrash builds a durable fleet, submits the stream with 32 callers
// recording every acknowledgement, snapshots the pre-crash truth, then
// Crash()es every home runtime (SIGKILL-equivalent: no drain, no final
// flush) and closes the manager.
func loadAndCrash(r *run, s *stream) (*crashedFleet, error) {
	f, err := newFleet(r, true, 0)
	if err != nil {
		return nil, err
	}
	cf := &crashedFleet{dir: f.dataDir, routines: len(s.ops)}
	for h := range cf.truth {
		cf.truth[h].acked = map[routine.ID]bool{}
	}
	callers := newCallers(f.h, recoverCallers)
	var mu sync.Mutex
	parallel(callers, s, s.ops, func(_ int, o op, _ int64, rid int64) {
		if rid > 0 {
			mu.Lock()
			cf.truth[o.home].acked[routine.ID(rid)] = true
			mu.Unlock()
		}
	})
	for _, c := range callers {
		c.tally(r)
	}
	f.checkStatus(r, int64(len(s.ops)))

	for h := range cf.truth {
		home, err := f.m.Runtime(fleetIDs[h])
		if err != nil {
			f.close()
			return nil, err
		}
		t := &cf.truth[h]
		t.status = map[routine.ID]visibility.RoutineStatus{}
		for _, res := range home.Results() {
			t.status[res.ID] = res.Status
		}
		t.states = home.CommittedStates()
		home.Crash()
	}
	f.m.Close() // idempotent over the crashed homes; releases the wal lock
	return cf, nil
}

// verifyRecovered holds a recovered home to its pre-crash truth: acked =>
// recovered with the same status, and per-device committed states match.
func verifyRecovered(r *run, h int, t *homeTruth, results []visibility.Result, states map[device.ID]device.State) {
	got := make(map[routine.ID]visibility.RoutineStatus, len(results))
	for _, res := range results {
		got[res.ID] = res.Status
	}
	lost, changed := 0, 0
	for id := range t.acked {
		st, ok := got[id]
		switch {
		case !ok:
			lost++
		case st != t.status[id]:
			changed++
		}
	}
	r.attempt(int64(len(t.acked)), int64(lost+changed))
	r.check(lost == 0 && changed == 0, "%s: of %d acknowledged routines %d are missing and %d changed status after recovery", homeID(h), len(t.acked), lost, changed)
	bad := 0
	for d, want := range t.states {
		if states[d] != want {
			bad++
		}
	}
	r.check(bad == 0 && len(states) == len(t.states), "%s: %d of %d committed device states differ after recovery", homeID(h), bad, len(t.states))
}

// recovered is a fleet brought back from a crashedFleet, with its timings.
type recovered struct {
	m         *manager.Manager
	recoverNs time.Duration // manager.New + RecoverHomes + one Results per home
	homesNs   time.Duration // the RecoverHomes call alone
	phase     phase
}

// recoverFleet is the timed part: a fresh manager over the crashed directory,
// RecoverHomes, and one Results(id) per home, checked against the truth.
func recoverFleet(r *run, cf *crashedFleet) (*recovered, error) {
	out := &recovered{phase: beginPhase(cf.routines)}
	t0 := time.Now()
	out.m = manager.New(managerConfig(cf.dir, 0))
	t1 := time.Now()
	ids, err := out.m.RecoverHomes()
	out.homesNs = time.Since(t1)
	if err != nil {
		out.m.Close()
		return nil, err
	}
	results := make([][]visibility.Result, numHomes)
	for h := range results {
		if results[h], err = out.m.Results(fleetIDs[h]); err != nil {
			out.m.Close()
			return nil, err
		}
	}
	out.recoverNs = time.Since(t0)
	out.phase.stop()

	r.check(len(ids) == numHomes, "RecoverHomes found %d homes, want %d", len(ids), numHomes)
	for h := range results {
		home, err := out.m.Runtime(fleetIDs[h])
		if err != nil {
			out.m.Close()
			return nil, err
		}
		verifyRecovered(r, h, &cf.truth[h], results[h], home.CommittedStates())
	}
	return out, nil
}

// freezeAll hibernates every home and returns each freeze's duration.
func freezeAll(m *manager.Manager) ([]int64, error) {
	ns := make([]int64, numHomes)
	for h := range ns {
		t0 := time.Now()
		if err := m.FreezeHome(fleetIDs[h]); err != nil {
			return nil, err
		}
		ns[h] = int64(time.Since(t0))
	}
	if st := m.Status(); st.Frozen != numHomes {
		return nil, fmt.Errorf("froze %d homes, status reports %d frozen", numHomes, st.Frozen)
	}
	return ns, nil
}

// wakeAll touches every frozen home once (Results) and returns each first-
// touch latency; the woken home must still hold its full history.
func wakeAll(r *run, m *manager.Manager, cf *crashedFleet) ([]int64, error) {
	ns := make([]int64, numHomes)
	for h := range ns {
		t0 := time.Now()
		results, err := m.Results(fleetIDs[h])
		ns[h] = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		r.check(len(results) == len(cf.truth[h].status), "%s woke with %d routines, froze with %d", homeID(h), len(results), len(cf.truth[h].status))
	}
	return ns, nil
}

// journalOpen times the journal layer's share of recovery on its own: open
// the shared wal (which scans and decodes every segment) and each home's
// journal, then abandon them all the way process death would, leaving the
// directory for the manager to recover next.
func journalOpen(r *run, cf *crashedFleet) error {
	t0 := time.Now()
	g, err := openGroupJournals(cf.dir)
	ns := time.Since(t0)
	if err != nil {
		return err
	}
	for _, j := range g.journals {
		j.Abandon()
	}
	for _, w := range g.writers {
		w.Abandon()
	}
	r.observe("journal.open_us_per_routine", "us", float64(ns.Microseconds())/float64(cf.routines), cf.routines)
	r.check(g.replayed == cf.routines, "journal.Open replayed %d routines, %d were acknowledged", g.replayed, cf.routines)
	return nil
}

// copyOf returns the crashed fleet over a fresh copy of its data directory:
// recovery rewrites what it reads (new checkpoints, a new wal epoch), so every
// round recovers its own copy of the one directory the run crashed.
func (cf *crashedFleet) copyOf(r *run) (*crashedFleet, error) {
	dir, err := os.MkdirTemp(r.cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	if err := os.CopyFS(dir, os.DirFS(cf.dir)); err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("copying the crashed fleet: %w", err)
	}
	work := *cf
	work.dir = dir
	return &work, nil
}

// traceRecover is recover's traced run: the same crash and recovery with the
// journal's and the manager's shares timed separately, plus what a freeze
// costs and what a frozen home keeps resident.
func traceRecover(r *run) error {
	start := sampleProc()
	tr := &tracer{t0: time.Now(), on: true}
	load := tr.begin("load+crash", 0, 0)
	crashed, err := loadAndCrash(r, genSubmitStream(r.cfg.seed, "recover", r.sz.recoverOps))
	tr.end(load)
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed.dir)

	err = r.rounds(func(round int) error {
		tr.on = round == 0
		cf, err := crashed.copyOf(r)
		if err != nil {
			return err
		}
		defer os.RemoveAll(cf.dir)

		open := tr.begin("journal.Open", round, 0)
		err = journalOpen(r, cf)
		tr.end(open)
		if err != nil {
			return err
		}

		recSpan := tr.begin("manager.New+RecoverHomes+Results", round, 0)
		rec, err := recoverFleet(r, cf)
		tr.end(recSpan)
		if err != nil {
			return err
		}
		defer func() {
			if rec.m != nil { // still set only when an error cut the round short
				rec.m.Close()
			}
		}()
		r.observe("manager.recover_s", "s", rec.recoverNs.Seconds(), 1)
		r.observe("manager.recover_us_per_routine", "us", float64(rec.homesNs.Microseconds())/float64(cf.routines), cf.routines)

		var freezes, wakes []int64
		for c := 0; c < r.sz.wakeCycles; c++ {
			fz := tr.begin("manager.FreezeHome x64", c, 0)
			ns, err := freezeAll(rec.m)
			tr.end(fz)
			if err != nil {
				return err
			}
			freezes = append(freezes, ns...)
			if c == r.sz.wakeCycles-1 {
				break // stay frozen for the resident-bytes reading below
			}
			wk := tr.begin("manager.Results (wake) x64", c, 0)
			ns, err = wakeAll(r, rec.m, cf)
			tr.end(wk)
			if err != nil {
				return err
			}
			wakes = append(wakes, ns...)
		}
		r.observe("manager.freeze_us", "us", p50us(freezes), len(freezes))
		r.observe("manager.wake_p90_us", "us", usOf(percentile(sortedCopy(wakes), 90)), len(wakes))

		// What 64 frozen homes keep on the heap, against the same manager
		// closed and dropped.
		runtime.GC()
		frozen := sampleProc().heap
		rec.m.Close()
		rec.m = nil
		runtime.GC()
		empty := sampleProc().heap
		r.observe("manager.frozen_bytes_per_home", "B", (float64(frozen)-float64(empty))/numHomes, numHomes)
		return nil
	})
	if err != nil {
		return err
	}
	observeProc(r, start)
	return tr.write(filepath.Join(r.cfg.outDir, "trace-recover.json"))
}

// runRecover loads and crashes one fleet per run (the load is the slow part:
// 800 routines per home, so that decoding history, not the handful of fsyncs
// a recovery or a wake also does, dominates what is timed) and recovers a
// fresh copy of it in every round.
func runRecover(r *run) error {
	t0 := time.Now()
	crashed, err := loadAndCrash(r, genSubmitStream(r.cfg.seed, "recover", r.sz.recoverOps))
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed.dir)
	loadTime := time.Since(t0)

	// A round wakes 64 homes wakeCycles times — too few samples for a tail —
	// so wake latencies are pooled over the run's rounds.
	var wakes []int64
	err = r.rounds(func(int) error {
		t0 := time.Now()
		cf, err := crashed.copyOf(r)
		if err != nil {
			return err
		}
		defer os.RemoveAll(cf.dir)
		r.observe("setup_s", "s", (loadTime + time.Since(t0)).Seconds(), 1)

		rec, err := recoverFleet(r, cf)
		if err != nil {
			return err
		}
		defer rec.m.Close()
		r.observe("manager.recover_s", "s", rec.recoverNs.Seconds(), 1)
		r.observe("throughput_rps", "1/s", float64(cf.routines)/rec.recoverNs.Seconds(), cf.routines)
		r.observePhases(rec.phase)

		for c := 0; c < r.sz.wakeCycles; c++ {
			if _, err := freezeAll(rec.m); err != nil {
				return err
			}
			ns, err := wakeAll(r, rec.m, cf)
			if err != nil {
				return err
			}
			wakes = append(wakes, ns...)
		}
		return observeRSS(r)
	})
	r.observeLatency(wakes)
	return err
}

package main

// The three request workloads — submit_mem, submit_durable, poll_mixed —
// driven through hub.ManagerHandler with in-process callers.

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"safehome/internal/hub"
	"safehome/internal/journal"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

// Caller counts, stated with every number they produce. Phase lat always has
// one caller: nothing contends, so its latency is service time.
const (
	memThrCallers  = 4  // phase thr, memory-only: 2 callers per core
	durThrCallers  = 32 // phase thr, durable: callers park on commit tickets, so many in flight feed each fsync cycle
	pollCallers    = 2  // poll_mixed: one per core
	recoverCallers = 32 // recover's load phase
)

// checkpointBytes is the journal's checkpoint cadence under the benchmark:
// the 1 MiB default scaled by the same 1/16 as the round size (a round is
// ~11k durable routines where a full-size run would be ~200k), so every home
// still cuts two to three checkpoints per round and checkpoint stalls stay
// inside the measured tail.
const checkpointBytes = 64 << 10

// fleetIDs are the 64 homes' manager-side names, rendered once.
var fleetIDs = func() (ids [numHomes]manager.HomeID) {
	for h := range ids {
		ids[h] = manager.HomeID(homeID(h))
	}
	return ids
}()

// journalOptions is the durable tier every journal in the benchmark runs at.
func journalOptions() journal.Options {
	return journal.Options{Mode: journal.ModeGroup, CheckpointBytes: checkpointBytes}
}

// managerConfig is the fixed environment: 2 shards, EV / Timeline scheduler,
// virtual clock; dataDir != "" adds the group-commit journal (fsync on,
// default 1 ms group window, default 4 MiB segments).
func managerConfig(dataDir string, eventLog int) manager.Config {
	cfg := manager.Config{
		Shards:   benchProcs,
		Clock:    manager.ClockVirtual,
		EventLog: eventLog,
		Home:     manager.HomeConfig{Model: visibility.EV, Scheduler: visibility.SchedTL},
	}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.Journal = journalOptions()
	}
	return cfg
}

// fleet is one round's system under test.
type fleet struct {
	m       *manager.Manager
	h       http.Handler
	dataDir string
}

// newFleet builds the manager, registers the 64 homes and returns the
// handler the callers invoke.
func newFleet(r *run, durable bool, eventLog int) (*fleet, error) {
	f := &fleet{}
	if durable {
		dir, err := os.MkdirTemp(r.cfg.outDir, "data-")
		if err != nil {
			return nil, err
		}
		f.dataDir = dir
	}
	f.m = manager.New(managerConfig(f.dataDir, eventLog))
	if st := f.m.Status(); st.DurabilityError != "" {
		f.close()
		return nil, fmt.Errorf("durability degraded: %s", st.DurabilityError)
	}
	if _, err := f.m.AddHomes("home", numHomes, numPlugs); err != nil {
		f.close()
		return nil, err
	}
	f.h = hub.ManagerHandler(f.m, numPlugs)
	return f, nil
}

func (f *fleet) close() {
	f.m.Close()
	if f.dataDir != "" {
		_ = os.RemoveAll(f.dataDir) // scratch journals; a leftover is harmless and ignored by git
	}
}

// checkStatus is the manager-level output check every request workload ends
// a round with: nothing lost, nothing shed, nothing degraded.
func (f *fleet) checkStatus(r *run, wantSubmitted int64) {
	st := f.m.Status()
	r.check(st.Submitted == wantSubmitted, "status: submitted %d, want %d", st.Submitted, wantSubmitted)
	r.check(st.Committed+st.Aborted == st.Submitted, "status: committed %d + aborted %d != submitted %d", st.Committed, st.Aborted, st.Submitted)
	r.check(st.Rejected == 0, "status: %d operations shed by full mailboxes", st.Rejected)
	r.check(st.DurabilityError == "", "status: durability error %q", st.DurabilityError)
}

// warmUp sends two submits per home so lazily built state exists before the
// clock starts; it returns how many routines that added.
func warmUp(c *caller, s *stream) int64 {
	n := int64(0)
	for h := 0; h < numHomes; h++ {
		for k := 0; k < 2; k++ {
			c.do(s, op{kind: opSubmit, home: uint16(h), body: uint16((2*h + k) % len(s.bodies))})
			n++
		}
	}
	return n
}

func runSubmitMem(r *run) error     { return runSubmit(r, "submit_mem", false, memThrCallers) }
func runSubmitDurable(r *run) error { return runSubmit(r, "submit_durable", true, durThrCallers) }

// runSubmit is submit_mem and submit_durable: per round a fresh fleet, phase
// lat (1 caller, per-op latency) then phase thr (thrCallers, rate).
func runSubmit(r *run, name string, durable bool, thrCallers int) error {
	t0 := time.Now()
	lat := genSubmitStream(r.cfg.seed, name+"/lat", r.sz.latOps(name))
	thr := genSubmitStream(r.cfg.seed, name+"/thr", r.sz.thrOps(name))
	genTime := time.Since(t0)

	return r.rounds(func(int) error {
		t0 := time.Now()
		f, err := newFleet(r, durable, 0)
		if err != nil {
			return err
		}
		defer f.close()
		one := newCaller(f.h)
		many := newCallers(f.h, thrCallers)
		submitted := warmUp(one, lat)
		r.observe("setup_s", "s", (genTime + time.Since(t0)).Seconds(), 1)

		pLat := beginPhase(len(lat.ops))
		ns := serial(one, lat, lat.ops)
		pLat.stop()
		r.observeLatency(ns)

		pThr := beginPhase(len(thr.ops))
		parallel(many, thr, thr.ops, nil)
		pThr.stop()
		r.observe("throughput_rps", "1/s", float64(pThr.ops)/pThr.elapsed().Seconds(), pThr.ops)
		r.observePhases(pLat, pThr)

		one.tally(r)
		for _, c := range many {
			c.tally(r)
		}
		f.checkStatus(r, submitted+int64(len(lat.ops)+len(thr.ops)))
		return observeRSS(r)
	})
}

func observeRSS(r *run) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.observe("peak_rss_mb", "MB", mb, 1)
	return nil
}

// runPollMixed: homes pre-seeded with 64 routines and a 256-event log, then
// two callers each run half of the generated mix, timing every op.
func runPollMixed(r *run) error {
	t0 := time.Now()
	pre := genPreseed(r.cfg.seed)
	mix := genPollStream(r.cfg.seed, r.sz.pollOps, r.sz.pollMetricsEvery)
	genTime := time.Since(t0)

	return r.rounds(func(int) error {
		t0 := time.Now()
		f, err := newFleet(r, false, 256)
		if err != nil {
			return err
		}
		defer f.close()
		callers := newCallers(f.h, pollCallers)
		parallel(callers, pre, pre.ops, nil)
		r.observe("setup_s", "s", (genTime + time.Since(t0)).Seconds(), 1)

		reads := make([][]int64, pollCallers)
		for c := range reads {
			reads[c] = make([]int64, 0, len(mix.ops)/pollCallers+1)
		}
		p := beginPhase(len(mix.ops))
		parallel(callers, mix, mix.ops, func(c int, o op, ns, _ int64) {
			if isRead(o) {
				reads[c] = append(reads[c], ns)
			}
		})
		p.stop()
		r.observeLatency(flatten(reads))
		r.observe("throughput_rps", "1/s", float64(p.ops)/p.elapsed().Seconds(), p.ops)
		r.observePhases(p)

		for _, c := range callers {
			c.tally(r)
		}
		f.checkStatus(r, int64(len(pre.ops)+mix.submits()))
		return observeRSS(r)
	})
}

func flatten(parts [][]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

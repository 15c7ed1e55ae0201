package main

// The traced run: a ladder, not in-program spans. The same generated op
// stream is replayed by one caller at five nested boundaries, every call
// wrapped by the benchmark in a span:
//
//	B0 hub.ManagerHandler.ServeHTTP
//	B1 routine.ParseSpec + manager.Manager.Submit (and the Manager read methods)
//	B2 runtime.HomeRuntime.Submit on bare runtime.NewSim homes, same Config
//	B3 visibility.Controller.Submit + sim.Run on a SimEnv controller (no goroutine hop)
//	B4 journal.Journal.Append + Commit on the batches B3's results produce
//
// A layer's self time is its boundary's median minus the next boundary's.
// Counts come from public counters only: Manager.Status and a /metrics diff
// parsed with telemetry.Parse.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/sim"
	"safehome/internal/telemetry"
	"safehome/internal/visibility"
)

// span is one traced call into a layer. IDs count from 1 in recording order;
// Parent 0 marks an op's root span. Times are nanoseconds since trace start.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, OpID: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// durations returns the duration of every span called name whose op passes
// keep, in recording order.
func (t *tracer) durations(name string, ops []op, keep func(op) bool) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && keep(ops[s.OpID]) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("[\n")
	for i := range t.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isSubmit(o op) bool { return o.kind == opSubmit }
func isRead(o op) bool   { return o.kind == opStatus || o.kind == opResult || o.kind == opEvents }

// p50us is the median of a set of span durations, in microseconds.
func p50us(ns []int64) float64 { return usOf(percentile(sortedCopy(ns), 50)) }

// rung is one boundary of the ladder: exec runs op i of stream s through it
// (recording spans when the tracer is on); close tears it down.
type rung struct {
	exec  func(s *stream, i int, o op)
	close func()
}

// ladderEnv is what every rung of one ladder shares.
type ladderEnv struct {
	r        *run
	tr       *tracer
	pre, s   *stream // pre (optional) is replayed untraced before s
	durable  bool
	eventLog int
	parsed   []*routine.Routine // s.bodies, parsed once for B2..B3
	cursor   [numHomes]uint64
	batches  []homeBatch // filled by B3, consumed by B4
	b0       *caller     // B0's caller, for response byte counts
	ckptNs   []int64     // B4: one Journal.Checkpoint per home
	passed   int64       // ops that passed their check in the current pass

	keepSpans bool   // collect this ladder's spans for the span file
	spans     []span // every traced pass's spans, in one numbering
}

// homeBatch is the journal record one submit produced at B3.
type homeBatch struct {
	home  uint16
	batch *journal.Batch
}

// done tallies one ladder op. The failure message is only built on failure,
// so a passing op allocates nothing inside the measured pass.
func (e *ladderEnv) done(ok bool, what string, home uint16, err error) {
	if ok {
		e.passed++
		return
	}
	e.r.check(false, "%s on %s: %v", what, homeID(int(home)), err)
}

func parseAll(bodies [][]byte) ([]*routine.Routine, error) {
	out := make([]*routine.Routine, len(bodies))
	for i, b := range bodies {
		r, err := routine.ParseSpec(b)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// pass replays pre untraced and s traced through one rung and returns the
// tracer holding that pass's spans plus its allocations per op.
func (e *ladderEnv) pass(build func(*ladderEnv) (*rung, error)) (*tracer, float64, error) {
	e.tr = &tracer{spans: make([]span, 0, 4*len(e.s.ops))}
	e.cursor = [numHomes]uint64{}
	rg, err := build(e)
	if err != nil {
		return nil, 0, err
	}
	defer rg.close()
	if e.pre != nil {
		for i, o := range e.pre.ops {
			rg.exec(e.pre, i, o)
		}
	}
	e.tr.t0, e.tr.on = time.Now(), true
	before := sampleProc()
	for i, o := range e.s.ops {
		rg.exec(e.s, i, o)
	}
	after := sampleProc()
	e.tr.on = false
	e.r.attempt(e.passed, 0)
	e.passed = 0
	return e.tr, float64(after.mallocs-before.mallocs) / float64(len(e.s.ops)), nil
}

// --- B0: the HTTP handler -------------------------------------------------------

func rungB0(e *ladderEnv) (*rung, error) {
	f, err := newFleet(e.r, e.durable, e.eventLog)
	if err != nil {
		return nil, err
	}
	c := newCaller(f.h)
	e.b0 = c
	return &rung{
		exec: func(s *stream, i int, o op) {
			id := e.tr.begin("hub.ServeHTTP", i, 0)
			c.do(s, o)
			e.tr.end(id)
		},
		close: func() { c.tally(e.r); f.close() },
	}, nil
}

// --- B1: the manager's methods --------------------------------------------------

func rungB1(e *ladderEnv) (*rung, error) {
	f, err := newFleet(e.r, e.durable, e.eventLog)
	if err != nil {
		return nil, err
	}
	return &rung{
		exec: func(s *stream, i int, o op) {
			root := e.tr.begin("B1", i, 0)
			var err error
			switch o.kind {
			case opSubmit:
				a := e.tr.begin("routine.ParseSpec", i, root)
				var r *routine.Routine
				r, err = routine.ParseSpec(s.bodies[o.body])
				e.tr.end(a)
				if err == nil {
					b := e.tr.begin("manager.Submit", i, root)
					_, err = f.m.Submit(fleetIDs[o.home], r)
					e.tr.end(b)
				}
			case opStatus:
				_, err = f.m.HomeStatus(fleetIDs[o.home])
			case opResult:
				_, _, err = f.m.Result(fleetIDs[o.home], routine.ID(o.rid))
			case opEvents:
				_, e.cursor[o.home], err = f.m.Events(fleetIDs[o.home], e.cursor[o.home])
			case opMetrics:
				_ = f.m.Telemetry().Render()
			}
			e.tr.end(root)
			e.done(err == nil, "B1", o.home, err)
		},
		close: f.close,
	}, nil
}

// --- B2: bare home runtimes ------------------------------------------------------

// bareHomes is 64 runtime.NewSim homes built with the Config the manager
// would give them, minus the manager.
type bareHomes struct {
	homes   [numHomes]*rt.HomeRuntime
	writers []*journal.GroupWriter
	dir     string
}

func newBareHomes(e *ladderEnv) (*bareHomes, error) {
	b := &bareHomes{}
	loop := rt.NewLoopMetrics(telemetry.NewRegistry())
	var jopts journal.Options
	if e.durable {
		dir, err := os.MkdirTemp(e.r.cfg.outDir, "data-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
		b.writers, err = journal.OpenWriters(filepath.Join(dir, "wal"), benchProcs, journal.WriterOptions{})
		if err != nil {
			b.close()
			return nil, err
		}
		jopts = journalOptions()
	}
	var submitted int64 // stands in for the manager's observer-fed counters
	for h := range b.homes {
		cfg := rt.Config{
			ID:        homeID(h),
			Clock:     rt.ClockVirtual,
			Model:     visibility.EV,
			Scheduler: visibility.SchedTL,
			EventLog:  e.eventLog,
			Journal:   jopts,
			Observer: func(ev visibility.Event) {
				if ev.Kind == visibility.EvSubmitted {
					submitted++
				}
			},
			OnSimEvents: func(int) {},
			Metrics:     loop,
		}
		if e.durable {
			cfg.DataDir = filepath.Join(b.dir, "homes", homeID(h))
			cfg.Journal.Writer = b.writers[h%len(b.writers)]
		}
		home, err := rt.NewSim(cfg, device.Plugs(numPlugs))
		if err != nil {
			b.close()
			return nil, err
		}
		b.homes[h] = home
	}
	return b, nil
}

func (b *bareHomes) close() {
	for _, h := range b.homes {
		if h != nil {
			h.Close()
		}
	}
	for _, w := range b.writers {
		_ = w.Close() // scratch journal; the directory is removed next
	}
	if b.dir != "" {
		_ = os.RemoveAll(b.dir)
	}
}

func rungB2(e *ladderEnv) (*rung, error) {
	b, err := newBareHomes(e)
	if err != nil {
		return nil, err
	}
	return &rung{
		exec: func(s *stream, i int, o op) {
			if o.kind != opSubmit {
				return
			}
			id := e.tr.begin("B2", i, 0)
			_, err := b.homes[o.home].Submit(e.parsed[o.body])
			e.tr.end(id)
			e.done(err == nil, "B2 submit", o.home, err)
		},
		close: b.close,
	}, nil
}

// --- B3: controller + simulator, no goroutine hop --------------------------------

type simHome struct {
	sim    *sim.Sim
	ctrl   visibility.Controller
	states []journal.StateEntry // committed-state changes of the op in flight
}

func rungB3(e *ladderEnv) (*rung, error) {
	var homes [numHomes]*simHome
	for h := range homes {
		sh := &simHome{sim: sim.NewAtEpoch()}
		fleet := device.NewFleet(device.Plugs(numPlugs))
		opts := visibility.DefaultOptions(visibility.EV)
		opts.Scheduler = visibility.SchedTL
		opts.StateSink = func(d device.ID, s device.State) {
			sh.states = append(sh.states, journal.StateEntry{Device: d, State: s})
		}
		sh.ctrl = visibility.New(visibility.NewSimEnv(sh.sim, fleet), fleet.Snapshot(), opts)
		homes[h] = sh
	}
	e.batches = e.batches[:0]
	return &rung{
		exec: func(s *stream, i int, o op) {
			if o.kind != opSubmit {
				return
			}
			sh := homes[o.home]
			sh.states = nil
			root := e.tr.begin("B3", i, 0)
			a := e.tr.begin("visibility.Submit", i, root)
			rid := sh.ctrl.Submit(e.parsed[o.body])
			e.tr.end(a)
			b := e.tr.begin("sim.Run", i, root)
			sh.sim.Run()
			e.tr.end(b)
			e.tr.end(root)
			res, ok := sh.ctrl.Result(rid)
			e.done(ok && res.Status.Finished(), "B3 routine left unfinished", o.home, nil)
			if e.tr.on && e.durable {
				// What the runtime's journalFlush would write for this drain:
				// the submit and its (already final) outcome, plus the changed
				// committed states.
				rec := journal.FromResult(res)
				e.batches = append(e.batches, homeBatch{o.home, &journal.Batch{
					Submits: []journal.RoutineRecord{rec}, Finishes: []journal.RoutineRecord{rec}, States: sh.states,
				}})
			}
		},
		close: func() {},
	}, nil
}

// --- B4: the journal --------------------------------------------------------------

// groupJournals is 64 homes' journals over one shared wal under dir, opened
// the way the manager opens them: journal.OpenWriters, then one journal.Open
// per home. replayed counts the routines the opens recovered.
type groupJournals struct {
	writers  []*journal.GroupWriter
	journals [numHomes]*journal.Journal
	replayed int
}

func openGroupJournals(dir string) (*groupJournals, error) {
	g := &groupJournals{}
	var err error
	if g.writers, err = journal.OpenWriters(filepath.Join(dir, "wal"), benchProcs, journal.WriterOptions{}); err != nil {
		return nil, err
	}
	for h := range g.journals {
		opts := journalOptions()
		opts.Writer, opts.HomeID = g.writers[h%len(g.writers)], homeID(h)
		j, rec, err := journal.Open(filepath.Join(dir, "homes", homeID(h)), opts)
		if err != nil {
			g.close()
			return nil, err
		}
		g.journals[h] = j
		if rec != nil {
			g.replayed += len(rec.Routines)
		}
	}
	return g, nil
}

func (g *groupJournals) close() {
	for _, j := range g.journals {
		if j != nil {
			_ = j.Close() // scratch journals: the caller removes the directory
		}
	}
	for _, w := range g.writers {
		_ = w.Close()
	}
}

func rungB4(e *ladderEnv) (*rung, error) {
	dir, err := os.MkdirTemp(e.r.cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	g, err := openGroupJournals(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	batches := e.batches
	next := 0
	var recs [numHomes][]journal.RoutineRecord
	return &rung{
		exec: func(s *stream, i int, o op) {
			if o.kind != opSubmit {
				return
			}
			hb := batches[next]
			next++
			j := g.journals[hb.home]
			root := e.tr.begin("B4", i, 0)
			a := e.tr.begin("journal.Append", i, root)
			err := j.Append(hb.batch)
			e.tr.end(a)
			b := e.tr.begin("journal.Commit", i, root)
			if err == nil {
				err = j.Commit()
			}
			e.tr.end(b)
			e.tr.end(root)
			e.done(err == nil, "B4 append/commit", hb.home, err)
			recs[hb.home] = append(recs[hb.home], hb.batch.Finishes...)
		},
		close: func() {
			// One checkpoint per home over the history this pass journaled.
			e.ckptNs = e.ckptNs[:0]
			for h, j := range g.journals {
				t0 := time.Now()
				err := j.Checkpoint(&journal.Checkpoint{Routines: recs[h], FirstSeq: 1})
				e.ckptNs = append(e.ckptNs, int64(time.Since(t0)))
				e.r.check(err == nil, "B4 checkpoint of %s: %v", homeID(h), err)
			}
			g.close()
			_ = os.RemoveAll(dir)
		},
	}, nil
}

// --- the ladder -------------------------------------------------------------------

// keep appends a traced pass's spans to the ladder's span file, renumbered
// into one sequence; only the round whose spans are written asks for it.
func (e *ladderEnv) keep(t *tracer) {
	if !e.keepSpans {
		return
	}
	base := len(e.spans)
	for _, s := range t.spans {
		s.ID += base
		if s.Parent > 0 {
			s.Parent += base
		}
		e.spans = append(e.spans, s)
	}
}

// untracedB0 is the B0 pass with span recording off — latency captured the way
// the untraced run does. Its difference to the traced B0 pass is the tracing
// overhead.
func (e *ladderEnv) untracedB0(keep func(op) bool) (float64, error) {
	f, err := newFleet(e.r, e.durable, e.eventLog)
	if err != nil {
		return 0, err
	}
	defer f.close()
	c := newCaller(f.h)
	if e.pre != nil {
		serial(c, e.pre, e.pre.ops)
	}
	var ns []int64
	for i, l := range serial(c, e.s, e.s.ops) {
		if keep(e.s.ops[i]) {
			ns = append(ns, l)
		}
	}
	c.tally(e.r)
	return p50us(ns), nil
}

// climbSubmits runs every rung over an all-submit stream and observes one
// round of ladder metrics.
func climbSubmits(e *ladderEnv) error {
	r, ops, n := e.r, e.s.ops, len(e.s.ops)

	b0Untraced, err := e.untracedB0(isSubmit)
	if err != nil {
		return err
	}
	t0, a0, err := e.pass(rungB0)
	if err != nil {
		return err
	}
	e.keep(t0)
	submits := sortedCopy(t0.durations("hub.ServeHTTP", ops, isSubmit))
	b0 := usOf(percentile(submits, 50))
	r.observe("trace.b0_p99_us", "us", usOf(percentile(submits, 99)), n)

	t1, a1, err := e.pass(rungB1)
	if err != nil {
		return err
	}
	e.keep(t1)
	b1 := p50us(t1.durations("B1", ops, isSubmit))
	parse := p50us(t1.durations("routine.ParseSpec", ops, isSubmit))
	b1Submit := p50us(t1.durations("manager.Submit", ops, isSubmit))

	t2, a2, err := e.pass(rungB2)
	if err != nil {
		return err
	}
	e.keep(t2)
	b2 := p50us(t2.durations("B2", ops, isSubmit))

	t3, a3, err := e.pass(rungB3)
	if err != nil {
		return err
	}
	e.keep(t3)
	b3 := p50us(t3.durations("B3", ops, isSubmit))
	place := p50us(t3.durations("visibility.Submit", ops, isSubmit))
	drain := p50us(t3.durations("sim.Run", ops, isSubmit))

	var b4, a4 float64
	if e.durable {
		t4, a, err := e.pass(rungB4)
		if err != nil {
			return err
		}
		e.keep(t4)
		a4 = a
		b4 = p50us(t4.durations("B4", ops, isSubmit))
		commits := sortedCopy(t4.durations("journal.Commit", ops, isSubmit))
		r.observe("journal.append_us", "us", p50us(t4.durations("journal.Append", ops, isSubmit)), n)
		r.observe("journal.allocs_per_append", "count", a4, n)
		r.observe("journal.commit_p50_us", "us", usOf(percentile(commits, 50)), n)
		r.observe("journal.commit_p99_us", "us", usOf(percentile(commits, 99)), n)
		r.observe("journal.checkpoint_us", "us", p50us(e.ckptNs), len(e.ckptNs))
	}

	for i, b := range []float64{b0, b1, b2, b3, b4} {
		r.observe(fmt.Sprintf("trace.b%d_p50_us", i), "us", b, n)
	}
	hubSelf := b0 - b1
	managerSelf := b1Submit - b2
	runtimeSelf := b2 - b3 - b4
	r.observe("hub.submit_self_us", "us", hubSelf, n)
	r.observe("routine.parse_us", "us", parse, n)
	r.observe("manager.submit_self_us", "us", managerSelf, n)
	r.observe("runtime.submit_self_us", "us", runtimeSelf, n)
	r.observe("visibility.place_idle_us", "us", place, n)
	r.observe("sim.drain_us_per_routine", "us", drain, n)
	accounted := hubSelf + parse + managerSelf + runtimeSelf + place + drain + b4
	r.observe("trace.unaccounted_pct", "%", 100*abs(b0-accounted)/b0, n)
	r.observe("trace.overhead_pct", "%", 100*(b0-b0Untraced)/b0Untraced, n)
	r.observe("hub.allocs_per_submit", "count", a0-a1, n)
	r.observe("runtime.allocs_per_submit", "count", a2-a3-a4, n)
	return nil
}

// climbReads is the ladder for poll_mixed's GETs: B0 against B1 (the Manager
// read methods); below B1 a read is a snapshot load, timed as a leaf. The
// mix's POSTs ride along so reads see the same publishing homes, but their
// single-caller latency is submit_mem's subject, not reported here.
func climbReads(e *ladderEnv) error {
	r, ops := e.r, e.s.ops

	b0Untraced, err := e.untracedB0(isRead)
	if err != nil {
		return err
	}
	t0, _, err := e.pass(rungB0)
	if err != nil {
		return err
	}
	e.keep(t0)
	reads := sortedCopy(t0.durations("hub.ServeHTTP", ops, isRead))
	b0 := usOf(percentile(reads, 50))
	r.observe("trace.b0_p99_us", "us", usOf(percentile(reads, 99)), len(reads))
	r.observe("hub.resp_bytes_per_read", "B", float64(e.b0.respBytes)/float64(e.b0.reads), int(e.b0.reads))

	t1, _, err := e.pass(rungB1)
	if err != nil {
		return err
	}
	e.keep(t1)
	b1 := p50us(t1.durations("B1", ops, isRead))

	r.observe("trace.b0_p50_us", "us", b0, len(reads))
	r.observe("trace.b1_p50_us", "us", b1, len(reads))
	r.observe("hub.read_self_us", "us", b0-b1, len(reads))
	r.observe("trace.overhead_pct", "%", 100*(b0-b0Untraced)/b0Untraced, len(reads))
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// parseAllocs measures routine.ParseSpec's allocations over the body pool.
func parseAllocs(r *run, bodies [][]byte) {
	before := sampleProc()
	for _, b := range bodies {
		_, err := routine.ParseSpec(b)
		r.check(err == nil, "ParseSpec: %v", err)
	}
	after := sampleProc()
	r.observe("routine.parse_allocs", "count", float64(after.mallocs-before.mallocs)/float64(len(bodies)), len(bodies))
}

// placeAllocs measures visibility.Controller.Submit's allocations exactly,
// by reading the allocator's counters around single calls (one goroutine,
// nothing else running) on always-idle tables.
func placeAllocs(r *run, routines []*routine.Routine) {
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(device.Plugs(numPlugs))
	opts := visibility.DefaultOptions(visibility.EV)
	opts.Scheduler = visibility.SchedTL
	ctrl := visibility.New(visibility.NewSimEnv(s, fleet), fleet.Snapshot(), opts)
	const n = 512
	var total uint64
	for i := 0; i < n; i++ {
		before := sampleProc()
		ctrl.Submit(routines[i%len(routines)])
		total += sampleProc().mallocs - before.mallocs
		s.Run()
	}
	r.observe("visibility.allocs_per_place", "count", float64(total)/n, n)
}

// scrape renders /metrics straight from the registry and parses it.
func scrape(m *manager.Manager) (map[string]*telemetry.Family, error) {
	return telemetry.Parse(string(m.Telemetry().Render()))
}

// histogramChild returns the family restricted to samples carrying the label.
func histogramChild(f *telemetry.Family, label, value string) *telemetry.Family {
	out := &telemetry.Family{Name: f.Name, Type: f.Type}
	for _, s := range f.Samples {
		if s.Labels[label] == value {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// histogramMean is (sum delta) / (count delta) of a label-less histogram.
func histogramMean(before, after *telemetry.Family) float64 {
	get := func(f *telemetry.Family, suffix string) float64 {
		if f == nil {
			return 0
		}
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, suffix) {
				return s.Value
			}
		}
		return 0
	}
	n := get(after, "_count") - get(before, "_count")
	if n == 0 {
		return 0
	}
	return (get(after, "_sum") - get(before, "_sum")) / n
}

// observeCounters reports the layer counts a loaded phase produced, from the
// /metrics diff around it and Manager.Status.
func observeCounters(r *run, m *manager.Manager, before, after map[string]*telemetry.Family) {
	b, a := telemetry.CounterTotals(before), telemetry.CounterTotals(after)
	d := func(name string) float64 { return a[name] - b[name] }
	routines := d("safehome_manager_submitted_total")
	if routines == 0 {
		return
	}
	n := int(routines)
	r.observe("runtime.snapshot_publishes_per_submit", "count", d("safehome_snapshot_publishes_total")/routines, n)
	r.observe("journal.fsyncs_per_1k_routines", "count", 1000*d("safehome_journal_fsyncs_total")/routines, n)
	r.observe("journal.bytes_per_routine", "B", d("safehome_journal_appended_bytes_total")/routines, n)
	r.observe("journal.checkpoints", "count", d("safehome_journal_checkpoints_total"), n)
	r.observe("journal.group_cycle_commits_mean", "count",
		histogramMean(before["safehome_journal_group_cycle_commits"], after["safehome_journal_group_cycle_commits"]), n)
	if f := after["safehome_routine_stage_seconds"]; f != nil {
		if q, ok := telemetry.HistogramQuantile(histogramChild(f, "stage", "place"), 0.5); ok {
			r.observe("visibility.place_inloop_p50_us", "us", q*1e6, n)
		}
	}
	st := m.Status()
	r.observe("runtime.mailbox_rejected", "count", float64(st.Rejected), n)
	r.observe("sim.events_per_routine", "count", float64(st.SimEvents)/float64(st.Submitted), int(st.Submitted))
}

// observeProc reports what the Go runtime did over the whole traced run.
func observeProc(r *run, start procSample) {
	end := sampleProc()
	r.observe("proc.gc_cycles", "count", float64(end.gcs-start.gcs), 1)
	r.observe("proc.gc_pause_ms", "ms", float64(end.pauseNs-start.pauseNs)/1e6, 1)
	r.observe("proc.heap_end_mb", "MB", float64(end.heap)/(1<<20), 1)
}

func writeSpans(r *run, workload string, spans []span) error {
	t := tracer{spans: spans}
	return t.write(filepath.Join(r.cfg.outDir, "trace-"+workload+".json"))
}

// --- traced request workloads ---------------------------------------------------

func traceSubmitMem(r *run) error     { return traceSubmit(r, "submit_mem", false, memThrCallers) }
func traceSubmitDurable(r *run) error { return traceSubmit(r, "submit_durable", true, durThrCallers) }

// traceSubmit: per round, the thr phase on a metered fleet for the layer
// counts, then the ladder over the lat stream.
func traceSubmit(r *run, name string, durable bool, thrCallers int) error {
	start := sampleProc()
	lat := genSubmitStream(r.cfg.seed, name+"/lat", r.sz.latOps(name))
	thr := genSubmitStream(r.cfg.seed, name+"/thr", r.sz.thrOps(name))
	parsed, err := parseAll(lat.bodies)
	if err != nil {
		return err
	}
	parseAllocs(r, lat.bodies)
	placeAllocs(r, parsed)

	var spans []span
	err = r.rounds(func(round int) error {
		f, err := newFleet(r, durable, 0)
		if err != nil {
			return err
		}
		callers := newCallers(f.h, thrCallers)
		before, err := scrape(f.m)
		if err != nil {
			f.close()
			return err
		}
		parallel(callers, thr, thr.ops, nil)
		after, err := scrape(f.m)
		if err != nil {
			f.close()
			return err
		}
		observeCounters(r, f.m, before, after)
		for _, c := range callers {
			c.tally(r)
		}
		f.checkStatus(r, int64(len(thr.ops)))
		f.close()

		env := &ladderEnv{r: r, s: lat, durable: durable, parsed: parsed, keepSpans: round == 0}
		err = climbSubmits(env)
		if round == 0 {
			spans = env.spans
		}
		return err
	})
	if err != nil {
		return err
	}
	observeProc(r, start)
	return writeSpans(r, name, spans)
}

// tracePollMixed: the mix phase on a metered fleet for the counts, the ladder
// over a one-caller slice of the mix, plus the scrape and snapshot-read leaves.
func tracePollMixed(r *run) error {
	start := sampleProc()
	pre := genPreseed(r.cfg.seed)
	mix := genPollStream(r.cfg.seed, r.sz.pollOps, r.sz.pollMetricsEvery)
	ladderOps := &stream{bodies: mix.bodies, ops: mix.ops[:min(len(mix.ops), r.sz.memLat*2)]}

	var spans []span
	err := r.rounds(func(round int) error {
		f, err := newFleet(r, false, 256)
		if err != nil {
			return err
		}
		defer f.close()
		callers := newCallers(f.h, pollCallers)
		parallel(callers, pre, pre.ops, nil)
		before, err := scrape(f.m)
		if err != nil {
			return err
		}
		submitNs := make([][]int64, pollCallers)
		parallel(callers, mix, mix.ops, func(c int, o op, ns, _ int64) {
			if o.kind == opSubmit {
				submitNs[c] = append(submitNs[c], ns)
			}
		})
		after, err := scrape(f.m)
		if err != nil {
			return err
		}
		observeCounters(r, f.m, before, after)
		posts := flatten(submitNs)
		r.observe("runtime.submit_beside_reads_p50_us", "us", p50us(posts), len(posts))

		// telemetry: a scrape through the handler, on the loaded fleet.
		c := callers[0]
		const scrapes = 20
		ns := serial(c, mix, repeatOp(op{kind: opMetrics}, scrapes))
		r.observe("telemetry.scrape_us", "us", p50us(ns), scrapes)
		r.observe("telemetry.scrape_bytes", "B", float64(c.w.n), scrapes)
		for _, c := range callers {
			c.tally(r)
		}
		f.checkStatus(r, int64(len(pre.ops)+mix.submits()))

		// runtime: what one snapshot read costs without any layer above it.
		home, err := f.m.Runtime(fleetIDs[0])
		if err != nil {
			return err
		}
		const reads = 200_000
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			snap := home.Snapshot()
			if i%2 == 0 {
				_ = snap.Counts()
			} else if _, ok := snap.Result(routine.ID(1 + i%preseedPer)); !ok {
				return fmt.Errorf("snapshot lost pre-seeded routine %d", 1+i%preseedPer)
			}
		}
		r.observe("runtime.snapshot_read_ns", "ns", float64(time.Since(t0).Nanoseconds())/reads, reads)

		env := &ladderEnv{r: r, pre: pre, s: ladderOps, eventLog: 256, keepSpans: round == 0}
		err = climbReads(env)
		if round == 0 {
			spans = env.spans
		}
		return err
	})
	if err != nil {
		return err
	}
	observeProc(r, start)
	return writeSpans(r, "poll_mixed", spans)
}

func repeatOp(o op, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

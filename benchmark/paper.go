package main

// paper_trace: no hub, manager, runtime or journal. Generated 400-routine /
// 40-device homes go straight into the visibility controller through
// harness.RunWith, so visibility/lineage/order/sim do all the work. Virtual-
// time outputs are deterministic: schedule quality is pinned (and checked)
// while schedule speed is measured.

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"safehome/internal/device"
	"safehome/internal/harness"
	"safehome/internal/lineage"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/sim"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// timedController wraps the real controller to time every placement — the
// Controller.Submit call into lineage tables occupied by earlier routines.
type timedController struct {
	visibility.Controller
	placeNs *[]int64
}

func (t timedController) Submit(r *routine.Routine) routine.ID {
	t0 := time.Now()
	id := t.Controller.Submit(r)
	*t.placeNs = append(*t.placeNs, int64(time.Since(t0)))
	return id
}

// timedFactory builds production controllers that log placement times.
func timedFactory(placeNs *[]int64) harness.ControllerFactory {
	return func(env *visibility.SimEnv, initial map[device.ID]device.State, opts visibility.Options) visibility.Controller {
		return timedController{visibility.New(env, initial, opts), placeNs}
	}
}

// trialDigest is what must repeat exactly across passes of one spec.
type trialDigest struct {
	committed   int
	parallelism float64
}

// verifyTrial runs both oracles (congruence + claimed serialization) on one
// finished trial.
func verifyTrial(r *run, spec workload.Spec, model string, tr harness.TrialResult) {
	vs := harness.Verify(spec, tr)
	r.check(len(vs) == 0, "%s under %s: oracle violations %v", spec.Name, model, vs)
}

func runPaperTrace(r *run) error {
	var specs []workload.Spec
	var want []trialDigest // round 0's schedule, which every later pass must reproduce
	ev := visibility.DefaultOptions(visibility.EV)

	err := r.rounds(func(round int) error {
		t0 := time.Now()
		specs = genPaperSpecs(r.cfg.seed, r.sz.paperSpecs)
		placeNs := make([]int64, 0, len(specs)*paperRoutines)
		factory := timedFactory(&placeNs)
		r.observe("setup_s", "s", time.Since(t0).Seconds(), 1)

		routines := 0
		results := make([]harness.TrialResult, len(specs))
		p := beginPhase(0)
		for i, spec := range specs {
			results[i] = harness.RunWith(spec, ev, r.cfg.seed+int64(i), factory)
			routines += spec.RoutineCount()
		}
		p.ops = routines
		p.stop()
		r.observeLatency(placeNs)
		r.observe("throughput_rps", "1/s", float64(routines)/p.elapsed().Seconds(), routines)
		r.observePhases(p)

		for i, tr := range results {
			verifyTrial(r, specs[i], "EV", tr)
			got := trialDigest{tr.Report.Committed, tr.Report.Parallelism}
			if round == 0 {
				want = append(want, got)
			}
			r.check(got == want[i], "%s: pass %d scheduled %+v, pass 0 %+v", specs[i].Name, round, got, want[i])
			r.attempt(int64(specs[i].RoutineCount()), int64(specs[i].RoutineCount()-tr.Report.Committed-tr.Report.Aborted))
		}
		if err := observeSchedLatency(r, results); err != nil {
			return err
		}
		return observeRSS(r)
	})
	if err != nil {
		return err
	}
	// One untimed pass under each other model of the paper: the oracles must
	// hold there too (WV promises no serial equivalence, so only its
	// bookkeeping checks apply — see verifyWeak).
	for _, m := range []visibility.Model{visibility.WV, visibility.GSV, visibility.PSV} {
		for i, spec := range specs {
			tr := harness.Run(spec, visibility.DefaultOptions(m), r.cfg.seed+int64(i))
			if m == visibility.WV {
				verifyWeak(r, spec, tr)
			} else {
				verifyTrial(r, spec, m.String(), tr)
			}
		}
	}
	return nil
}

// observeSchedLatency reports the paper's own responsiveness metric: the
// median, over every committed routine of every trial, of latency divided by
// ideal run time — in virtual time, so identical on every pass.
func observeSchedLatency(r *run, results []harness.TrialResult) error {
	var norm []float64
	for _, tr := range results {
		norm = append(norm, tr.Report.NormalizedLatencies...)
	}
	if len(norm) == 0 {
		return fmt.Errorf("no routine committed under EV")
	}
	sort.Float64s(norm)
	r.observe("visibility.sched_latency_norm_p50", "ratio", norm[len(norm)/2], len(norm))
	return nil
}

// verifyWeak checks what even Weak Visibility guarantees: every submission
// reached a terminal result.
func verifyWeak(r *run, spec workload.Spec, tr harness.TrialResult) {
	done := 0
	for _, res := range tr.Results {
		if res.Status.Finished() {
			done++
		}
	}
	r.check(len(tr.Results) == len(spec.Submissions) && done == len(tr.Results),
		"%s under WV: %d submissions, %d results, %d finished", spec.Name, len(spec.Submissions), len(tr.Results), done)
}

// tracePaperTrace is paper_trace's traced run: every placement is a span,
// the simulator's share is what is left of each trial, and the lineage and
// order leaves are timed on their own.
func tracePaperTrace(r *run) error {
	start := sampleProc()
	specs := genPaperSpecs(r.cfg.seed, r.sz.paperSpecs)
	ev := visibility.DefaultOptions(visibility.EV)
	tr := &tracer{}

	err := r.rounds(func(round int) error {
		var placeNs []int64
		var drainNs, routines int64
		results := make([]harness.TrialResult, len(specs))
		for i, spec := range specs {
			from := len(placeNs)
			t0 := time.Now()
			res := harness.RunWith(spec, ev, r.cfg.seed+int64(i), timedFactory(&placeNs))
			trial := int64(time.Since(t0))
			results[i] = res
			verifyTrial(r, spec, "EV", res)
			var placed int64
			for _, ns := range placeNs[from:] {
				placed += ns
			}
			drainNs += trial - placed
			routines += int64(spec.RoutineCount())
			if round == 0 {
				// Spans are rebuilt from the recorded durations: a trial's
				// placements are laid end to end from its start.
				at := int64(t0.Sub(start.wall))
				root := len(tr.spans) + 1
				tr.spans = append(tr.spans, span{ID: root, Name: "harness.Run " + spec.Name, OpID: i, Start: at, End: at + trial})
				for k, ns := range placeNs[from:] {
					tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Name: "visibility.Submit", OpID: from + k, Parent: root, Start: at, End: at + ns})
					at += ns
				}
			}
		}
		sorted := sortedCopy(placeNs)
		var sum int64
		for _, ns := range placeNs {
			sum += ns
		}
		r.observe("visibility.place_occupied_us", "us", usOf(percentile(sorted, 50)), len(sorted))
		r.observe("visibility.place_occupied_mean_us", "us", usOf(float64(sum)/float64(len(placeNs))), len(sorted))
		r.observe("visibility.place_occupied_p99_us", "us", usOf(percentile(sorted, 99)), len(sorted))
		r.observe("sim.drain_us_per_routine", "us", usOf(float64(drainNs)/float64(routines)), int(routines))
		return observeSchedLatency(r, results)
	})
	if err != nil {
		return err
	}
	paperAllocs(r, specs[0], ev)
	lineageLeaf(r)
	orderLeaf(r)
	observeProc(r, start)
	return tr.write(filepath.Join(r.cfg.outDir, "trace-paper_trace.json"))
}

// allocCounter wraps the controller to count Submit's allocations exactly.
type allocCounter struct {
	visibility.Controller
	mallocs *uint64
}

func (a allocCounter) Submit(rt *routine.Routine) routine.ID {
	before := sampleProc().mallocs
	id := a.Controller.Submit(rt)
	*a.mallocs += sampleProc().mallocs - before
	return id
}

// paperAllocs reports allocations per placement into occupied tables and the
// simulator events one routine costs, from one untimed pass over a spec.
func paperAllocs(r *run, spec workload.Spec, opts visibility.Options) {
	var mallocs uint64
	res := harness.RunWith(spec, opts, r.cfg.seed, func(env *visibility.SimEnv, initial map[device.ID]device.State, o visibility.Options) visibility.Controller {
		return allocCounter{visibility.New(env, initial, o), &mallocs}
	})
	n := spec.RoutineCount()
	r.observe("visibility.allocs_per_place", "count", float64(mallocs)/float64(n), n)
	r.observe("sim.events_per_routine", "count", float64(res.Events)/float64(n), n)
}

// lineageLeaf times Table.GapsInto on one device's lineage holding 30
// accesses with free gaps between them — the Timeline scheduler's inner scan.
func lineageLeaf(r *run) {
	const dev, accesses, iters = device.ID("plug-0"), 30, 200_000
	t := lineage.NewTable(map[device.ID]device.State{dev: device.Off})
	for i := 0; i < accesses; i++ {
		_, err := t.Append(dev, lineage.Access{
			Routine: routine.ID(i + 1), Target: device.On,
			Start: sim.Epoch.Add(time.Duration(2*i) * time.Minute), Duration: time.Minute,
		})
		r.check(err == nil, "lineage.Append: %v", err)
	}
	var buf []lineage.Gap
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		buf = t.GapsInto(buf[:0], dev, sim.Epoch)
	}
	r.observe("lineage.gaps_into_ns", "ns", float64(time.Since(t0).Nanoseconds())/iters, iters)
	r.check(len(buf) == accesses, "GapsInto found %d gaps, want %d", len(buf), accesses)
}

// orderLeaf times Graph.AddEdge + Remove (cycle check included) on a layered
// 64-node precedence graph — the inner loop of every placement decision.
func orderLeaf(r *run) {
	const nodes, layers, iters = 64, 8, 200_000
	g := order.NewGraph()
	per := nodes / layers
	for i := 0; i < nodes-per; i++ {
		next := (i/per + 1) * per
		for j := next; j < next+per; j++ {
			err := g.AddEdge(order.RoutineNode(routine.ID(i+1)), order.RoutineNode(routine.ID(j+1)))
			r.check(err == nil, "order.AddEdge: %v", err)
		}
	}
	probe, first := order.RoutineNode(routine.ID(nodes+1)), order.RoutineNode(1)
	failed := 0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if g.AddEdge(first, probe) != nil {
			failed++
		}
		g.Remove(probe)
	}
	r.observe("order.add_edge_ns", "ns", float64(time.Since(t0).Nanoseconds())/iters, iters)
	r.check(failed == 0, "order.AddEdge failed %d of %d times", failed, iters)
}

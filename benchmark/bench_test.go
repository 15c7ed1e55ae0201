package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safehome/internal/visibility"
)

// TestOpStreamIsSeeded: same seed, same inputs; another seed, other inputs.
func TestOpStreamIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := opStreamSHA(w.name, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := opStreamSHA(w.name, 1, 0.01)
		other, _ := opStreamSHA(w.name, 2, 0.01)
		if a != again {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs (%s)", w.name, a)
		}
	}
}

// TestEveryWorkloadRuns exercises the harness itself: every workload, traced
// and untraced, at a hundredth of the size — every contract metric present,
// every output check passing, all inside ten seconds.
func TestEveryWorkloadRuns(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(config{workload: w.name, seed: 1, seconds: 0, scale: 0.01, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, contract lists %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("the scaled-down suite took %v, budget 10s", d)
	}
}

// TestCorruptedExpectationFailsTheRun: the recover workload's acked =>
// recovered check must fail the run when one expected value is wrong.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	r := newRun(config{seed: 1, scale: 0.01, outDir: t.TempDir()})
	cf, err := loadAndCrash(r, genSubmitStream(1, "recover", r.sz.recoverOps))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(cf.dir)
	if r.failed != 0 {
		t.Fatalf("load phase already failed %d checks: %v", r.failed, r.failures)
	}
	for id := range cf.truth[0].acked {
		cf.truth[0].status[id] = visibility.StatusAborted // it committed
		break
	}
	rec, err := recoverFleet(r, cf)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.m.Close()
	if r.failed == 0 {
		t.Fatal("a corrupted expected status passed the acked => recovered check")
	}
}

// TestTablesMatchBenchmarkJSON holds the binary's metric and workload tables
// to the BENCHMARK.json the driver reads.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the binary %q / %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// TestCompareVerdicts: a change past its bound is a breach, a change inside
// it is ok, and a pair whose own spread exceeds the bound is unresolved.
func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 []float64, rps float64) *report {
		rep := &report{Scale: 1, Seconds: 15, Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{EndToEnd: map[string]*series{}}
			for _, d := range endToEnd {
				s := &series{Unit: d.unit}
				switch d.name {
				case "op_p50_us":
					for _, v := range p50 {
						s.add(v)
					}
				case "throughput_rps":
					s.add(rps)
				default:
					s.add(10)
				}
				wr.EndToEnd[d.name] = s
			}
			rep.Workloads[w.name] = wr
		}
		return rep
	}
	write := func(name string, rep *report) string {
		path := filepath.Join(t.TempDir(), name)
		buf, _ := json.Marshal(rep)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := write("a.json", mk(steady, 1000))

	var out bytes.Buffer
	if n, err := compareReports(&out, base, write("same.json", mk(steady, 1000))); err != nil || n != 0 {
		t.Errorf("identical reports: %d breaches, err %v\n%s", n, err, out.String())
	}
	out.Reset()
	n, err := compareReports(&out, base, write("slow.json", mk(steady, 600))) // -40 % throughput: past any allowed bound
	if err != nil || n != len(workloads) || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("slower throughput: %d breaches, err %v\n%s", n, err, out.String())
	}
	out.Reset()
	noisy := []float64{100, 160, 60, 140, 180}
	n, err = compareReports(&out, base, write("noisy.json", mk(noisy, 1000)))
	if err != nil || n != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy latency: %d breaches, err %v\n%s", n, err, out.String())
	}
}

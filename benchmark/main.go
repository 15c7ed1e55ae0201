// Command benchmark is the repository's benchmark of record: one command,
// five workloads, end-to-end metrics measured untraced and per-layer metrics
// from a separate traced (ladder) run. See README.md in this directory.
//
// Driver contract (BENCHMARK.json at the repo root):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload in this process and prints, as the last line of standard
// output, {"correct","attempted","failed","metrics"}. Without --workload it
// re-executes itself once per workload (so RSS, heap and GC state never leak
// between workloads), prints every metric, and with -out writes the JSON that
// -compare consumes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// benchProcs is the fixed parallelism: the manager's writer count, the Go
// scheduler and the load generator all live inside two running threads.
const benchProcs = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string
}

// workloadDef is one named workload: its reason to exist and its two modes.
type workloadDef struct {
	name   string
	why    string
	run    func(r *run) error // untraced: end-to-end metrics
	ladder func(r *run) error // traced: per-layer metrics
}

var workloads = []workloadDef{
	{"submit_mem", "memory-only submits: every layer except journal works; the runtime goroutine hop and hub/routine JSON dominate", runSubmitMem, traceSubmitMem},
	{"submit_durable", "same stream with the group-commit journal on local disk: journal does ~98 % of the wall time", runSubmitDurable, traceSubmitDurable},
	{"poll_mixed", "90 % snapshot reads beside 10 % submits, Zipf(1.1) homes: uses runtime the other way round", runPollMixed, tracePollMixed},
	{"paper_trace", "generated 400-routine homes straight into the EV scheduler: visibility/lineage/order/sim only, schedule quality pinned", runPaperTrace, tracePaperTrace},
	{"recover", "crash a journaled fleet, then time recovery and first-touch wake of frozen homes: journal decode and the wake path", runRecover, traceRecover},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricOut is one reported metric, as the contract line carries it.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-contract line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var out string
	var compare bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all five, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "keep starting fixed-size rounds until this much time has passed (at least one round)")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every per-round operation count")
	flag.IntVar(&trace, "trace", 0, "1 = traced ladder run reporting per-layer metrics; 0 = untraced end-to-end metrics")
	flag.StringVar(&cfg.outDir, "outdir", filepath.Join("benchmark", "out"), "where journals and span files are written")
	flag.StringVar(&out, "out", "", "all-workloads mode: write the JSON report -compare consumes")
	flag.IntVar(&runs, "runs", 1, "all-workloads mode: repeat the whole suite this many times and report medians and quartiles")
	flag.BoolVar(&compare, "compare", false, "compare two -out reports: benchmark -compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		breaches, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case cfg.workload == "":
		if err := runAll(cfg, max(runs, 1), out); err != nil {
			fatal(err)
		}
	default:
		res, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and shapes its metrics to the
// contract: every end-to-end metric untraced, every per-layer metric traced.
func runOne(cfg config) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 || cfg.seconds < 0 {
		return result{}, fmt.Errorf("-scale must be positive and -seconds non-negative")
	}
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	// A run killed mid-round leaves its scratch journals behind; runs are
	// sequential, so anything here is stale.
	stale, _ := filepath.Glob(filepath.Join(cfg.outDir, "data-*")) // the pattern is well formed
	for _, dir := range stale {
		_ = os.RemoveAll(dir)
	}
	sha, err := opStreamSHA(w.name, cfg.seed, cfg.scale)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("workload=%s seed=%d scale=%g seconds=%g trace=%v gomaxprocs=%d input_sha256=%s\n",
		w.name, cfg.seed, cfg.scale, cfg.seconds, cfg.trace, benchProcs, sha)

	r := newRun(cfg)
	defs, fn := endToEnd, w.run
	if cfg.trace {
		defs, fn = perLayer, w.ladder
	}
	if err := fn(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, def := range defs {
		vals, seen := r.obs[def.name]
		if !seen && !cfg.trace {
			return result{}, fmt.Errorf("%s did not report end-to-end metric %s", w.name, def.name)
		}
		// A layer the workload bypasses reports 0 for its metrics.
		res.Metrics[def.name] = metricOut{Value: median(vals), Unit: def.unit}
		fmt.Printf("  %-44s %14.4f %-6s samples=%d rounds=%d\n", def.name, median(vals), def.unit, r.count[def.name], len(vals))
	}
	var extra []string
	for name := range r.obs {
		if _, listed := res.Metrics[name]; !listed {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		// Reported for the operator, outside the contract's metric set.
		fmt.Printf("  (extra) %-36s %14.4f %-6s samples=%d\n", name, median(r.obs[name]), r.unit[name], r.count[name])
	}
	for _, f := range r.failures {
		fmt.Println("FAILED CHECK:", f)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("%s attempted nothing", w.name)
	}
	return res, nil
}

package main

// All-workloads mode (-out) and -compare. The suite re-executes this binary
// once per workload and mode, so no workload inherits another's heap, GC
// pacing or RSS high-water mark.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// series is one metric of one workload over the suite's repetitions.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadReport struct {
	InputSHA256 string             `json:"input_sha256"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	EndToEnd    map[string]*series `json:"end_to_end"`
	PerLayer    map[string]*series `json:"per_layer,omitempty"`
}

// report is what -out writes and -compare reads.
type report struct {
	Seed       int64                      `json:"seed"`
	Scale      float64                    `json:"scale"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Kernel     string                     `json:"kernel"`
	Commit     string                     `json:"git_commit"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// quartiles returns the median and the first and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the acceptance rule is stated in.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), median(s), at(3)
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
}

// spread is the interquartile distance as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return abs(s.Q3-s.Q1) / abs(s.Median)
}

// child runs one workload in a fresh process and parses its contract line.
func child(cfg config, workload string, trace bool) (result, string, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, "", err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"--trace", t, "--outdir", cfg.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, "", fmt.Errorf("%s: no result line (%v): %s", workload, runErr, out.String())
	}
	sha := ""
	if _, after, ok := strings.Cut(lines[0], "input_sha256="); ok {
		sha = after
	}
	return res, sha, nil
}

// runAll runs every workload cfg.runs times, untraced and (with -trace 1)
// traced, prints each metric's median and quartiles, and writes the report.
func runAll(cfg config, runs int, outPath string) error {
	rep := &report{
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Runs: runs,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: benchProcs,
		Kernel: kernelRelease(), Commit: gitCommit(), Workloads: map[string]*workloadReport{},
	}
	failed := int64(0)
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			wr := rep.Workloads[w.name]
			if wr == nil {
				wr = &workloadReport{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
				rep.Workloads[w.name] = wr
			}
			modes := []bool{false}
			if cfg.trace {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				res, sha, err := child(cfg, w.name, traced)
				if err != nil {
					return err
				}
				wr.InputSHA256 = sha
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				failed += res.Failed
				into := wr.EndToEnd
				if traced {
					into = wr.PerLayer
				}
				for name, m := range res.Metrics {
					if into[name] == nil {
						into[name] = &series{Unit: m.Unit}
					}
					into[name].add(m.Value)
				}
				fmt.Printf("run %d/%d %-15s traced=%-5v attempted=%d failed=%d\n", i+1, runs, w.name, traced, res.Attempted, res.Failed)
			}
		}
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		ratio := float64(wr.Failed) / float64(max(wr.Attempted, 1))
		fmt.Printf("\n%s  (input %s)  failed_ops_ratio %g  [%d of %d]\n", w.name, wr.InputSHA256[:min(12, len(wr.InputSHA256))], ratio, wr.Failed, wr.Attempted)
		printSeries(wr.EndToEnd)
		printSeries(wr.PerLayer)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or output checks failed", failed)
	}
	return nil
}

func printSeries(m map[string]*series) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := m[n]
		fmt.Printf("  %-44s %14.4f %-6s q1 %14.4f  q3 %14.4f  runs=%d\n", n, s.Median, s.Unit, s.Q1, s.Q3, len(s.Values))
	}
}

func kernelRelease() string {
	buf, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(buf))
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints, per (workload, end-to-end metric), both medians, the
// relative change (positive = worse) and the bound. A pair whose own spread
// exceeds the bound is marked unresolved instead of judged; any other change
// past its bound is a breach. It returns the number of breaches.
func compareReports(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d scale %g runs %d\n", pathA, a.Commit, a.Seed, a.Scale, a.Runs)
	fmt.Fprintf(w, "b: %s  commit %s seed %d scale %g runs %d\n", pathB, b.Commit, b.Seed, b.Scale, b.Runs)
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("reports differ in scale or seconds; they did not measure the same work")
	}
	breaches := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			return breaches, fmt.Errorf("workload %s missing from a report", wl.name)
		}
		if wb.Failed > 0 {
			breaches++
			fmt.Fprintf(w, "%-15s %-16s %14d %14d %9s %7s  BREACH (failed operations)\n", wl.name, "failed", wa.Failed, wb.Failed, "", "0")
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			if sa == nil || sb == nil {
				return breaches, fmt.Errorf("%s: metric %s missing from a report", wl.name, def.name)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa.spread() > def.bound || sb.spread() > def.bound:
				verdict = fmt.Sprintf("unresolved (spread a %.1f%% b %.1f%%)", 100*sa.spread(), 100*sb.spread())
			case worse > def.bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-15s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.name, def.name, sa.Median, sb.Median, 100*worse, 100*def.bound, verdict)
		}
	}
	return breaches, nil
}

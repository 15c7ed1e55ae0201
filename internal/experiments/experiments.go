// Package experiments regenerates every figure and table of the paper's
// evaluation (§7). Each experiment runs workload-driven simulations through
// the harness and renders its results as plain-text tables whose rows/series
// correspond to the paper's plots.
//
// Absolute numbers differ from the paper (the substrate is a discrete-event
// emulation, not the authors' testbed and traces), but the shapes — which
// model wins, by roughly what factor, and where crossovers happen — are the
// reproduction targets.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Options scales an experiment run. The zero value picks per-experiment
// defaults sized for interactive use; the paper's full trial counts can be
// requested by raising Trials.
type Options struct {
	// Trials is the number of randomized trials per data point (0 = default).
	Trials int
	// Seed is the base random seed (0 = 1).
	Seed int64
	// Quick shrinks workload sizes further, for use in unit tests and smoke
	// benchmarks.
	Quick bool
}

func (o Options) normalized(defaultTrials int) Options {
	if o.Trials <= 0 {
		o.Trials = defaultTrials
	}
	if o.Quick && o.Trials > 3 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table is one rendered result table (one figure panel or paper table).
type Table struct {
	// ID identifies the paper artifact, e.g. "fig12a-morning" or "fig13b".
	ID string
	// Title describes what the table shows.
	Title string
	// Columns are the column headers; Rows are pre-formatted cells.
	Columns []string
	Rows    [][]string
	// Notes carries caveats or the qualitative takeaway.
	Notes string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment couples a paper artifact with the function that regenerates it.
type Experiment struct {
	// ID is the short name used by `safehome-bench -experiment <id>`.
	ID string
	// Paper names the figure/table in the paper.
	Paper string
	// Description summarizes the experiment.
	Description string
	// Run regenerates the artifact's tables.
	Run func(Options) []Table
}

// All lists every reproducible figure and table, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Paper: "Figure 1", Description: "Concurrency causes incongruent end-states under Weak Visibility", Run: Figure1},
		{ID: "fig2", Paper: "Figure 2 / Table 1", Description: "Five-routine example under GSV, PSV and EV", Run: Figure2},
		{ID: "fig3", Paper: "Figure 3 / Table 2", Description: "Failure serialization cases across visibility models", Run: Figure3},
		{ID: "fig12a", Paper: "Figure 12a", Description: "Morning/Party/Factory scenarios: latency, temporary incongruence, parallelism", Run: Figure12a},
		{ID: "fig12b", Paper: "Figure 12b", Description: "Final incongruence across 100 runs of 9 routines", Run: Figure12b},
		{ID: "fig13", Paper: "Figure 13", Description: "Effect of failures: abort rate and rollback overhead vs Must% and Failed%", Run: Figure13},
		{ID: "fig14", Paper: "Figure 14", Description: "Scheduling policies: FCFS vs JiT vs Timeline", Run: Figure14},
		{ID: "fig15ab", Paper: "Figure 15a-b", Description: "Lock-lease ablation under the Timeline scheduler", Run: Figure15ab},
		{ID: "fig15c", Paper: "Figure 15c", Description: "CDF of routine stretch factor vs commands per routine", Run: Figure15c},
		{ID: "fig15d", Paper: "Figure 15d", Description: "Timeline scheduler insertion time vs routine size", Run: Figure15d},
		{ID: "fig16", Paper: "Figure 16", Description: "Impact of routine size and device popularity", Run: Figure16},
		{ID: "fig17", Paper: "Figure 17", Description: "Impact of long-running routine duration and fraction", Run: Figure17},
		{ID: "table3", Paper: "Table 3", Description: "Microbenchmark parameter defaults", Run: Table3},
		{ID: "mt-scale", Paper: "(beyond the paper)", Description: "Multi-tenant HomeManager throughput vs worker-shard count", Run: MultiTenant},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every experiment ID, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// --- formatting helpers -------------------------------------------------------

func fmtMS(ms float64) string {
	if ms >= 60_000 {
		return fmt.Sprintf("%.1fm", ms/60_000)
	}
	if ms >= 1000 {
		return fmt.Sprintf("%.1fs", ms/1000)
	}
	return fmt.Sprintf("%.0fms", ms)
}

func fmtPct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

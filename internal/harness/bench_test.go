package harness

import (
	"testing"

	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// BenchmarkPaperTrace replays the benchmark of record's paper_trace round in
// miniature: generated 400-routine / 40-device homes straight into the EV/TL
// controller, oracles included. One op is one routine, so ns/op and allocs/op
// read as the per-routine cost of placement + execution + the per-trial
// metrics and congruence evaluation.
func BenchmarkPaperTrace(b *testing.B) {
	const homes, routines = 6, 400
	specs := make([]workload.Spec, homes)
	for i := range specs {
		specs[i] = workload.Generate(workload.GenParams{Devices: 40, Routines: routines, Seed: int64(i + 1)})
	}
	opts := visibility.DefaultOptions(visibility.EV)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += routines {
		spec := specs[(i/routines)%homes]
		tr := Run(spec, opts, int64(i))
		if tr.Report.Committed+tr.Report.Aborted != spec.RoutineCount() {
			b.Fatalf("%s: %d of %d routines finished", spec.Name, tr.Report.Committed+tr.Report.Aborted, spec.RoutineCount())
		}
	}
}

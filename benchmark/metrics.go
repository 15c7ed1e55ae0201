package main

// The metric tables mirror BENCHMARK.json at the repo root (a test holds them
// to it): the contract line carries exactly these names, and -compare judges
// with these bounds. Definitions are in README.md.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported by every workload's untraced run; what "op" means per
// workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_ratio", "ratio", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is reported by every workload's traced run; a layer the workload
// bypasses reports 0.
var perLayer = []metricDef{
	{name: "hub.submit_self_us", unit: "us", better: "lower"},
	{name: "hub.read_self_us", unit: "us", better: "lower"},
	{name: "hub.allocs_per_submit", unit: "count", better: "lower"},
	{name: "hub.resp_bytes_per_read", unit: "B", better: "lower"},
	{name: "routine.parse_us", unit: "us", better: "lower"},
	{name: "routine.parse_allocs", unit: "count", better: "lower"},
	{name: "manager.submit_self_us", unit: "us", better: "lower"},
	{name: "manager.recover_s", unit: "s", better: "lower"},
	{name: "manager.recover_us_per_routine", unit: "us", better: "lower"},
	{name: "manager.freeze_us", unit: "us", better: "lower"},
	{name: "manager.wake_p90_us", unit: "us", better: "lower"},
	{name: "manager.frozen_bytes_per_home", unit: "B", better: "lower"},
	{name: "runtime.submit_self_us", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_submit", unit: "count", better: "lower"},
	{name: "runtime.snapshot_read_ns", unit: "ns", better: "lower"},
	{name: "runtime.snapshot_publishes_per_submit", unit: "count", better: "lower"},
	{name: "runtime.mailbox_rejected", unit: "count", better: "lower"},
	{name: "runtime.submit_beside_reads_p50_us", unit: "us", better: "lower"},
	{name: "visibility.place_idle_us", unit: "us", better: "lower"},
	{name: "visibility.place_occupied_us", unit: "us", better: "lower"},
	{name: "visibility.place_occupied_mean_us", unit: "us", better: "lower"},
	{name: "visibility.place_occupied_p99_us", unit: "us", better: "lower"},
	{name: "visibility.allocs_per_place", unit: "count", better: "lower"},
	{name: "visibility.place_inloop_p50_us", unit: "us", better: "lower"},
	{name: "visibility.sched_latency_norm_p50", unit: "ratio", better: "lower"},
	{name: "lineage.gaps_into_ns", unit: "ns", better: "lower"},
	{name: "order.add_edge_ns", unit: "ns", better: "lower"},
	{name: "sim.events_per_routine", unit: "count", better: "lower"},
	{name: "sim.drain_us_per_routine", unit: "us", better: "lower"},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.allocs_per_append", unit: "count", better: "lower"},
	{name: "journal.commit_p50_us", unit: "us", better: "lower"},
	{name: "journal.commit_p99_us", unit: "us", better: "lower"},
	{name: "journal.fsyncs_per_1k_routines", unit: "count", better: "lower"},
	{name: "journal.group_cycle_commits_mean", unit: "count", better: "higher"},
	{name: "journal.checkpoints", unit: "count", better: "lower"},
	{name: "journal.checkpoint_us", unit: "us", better: "lower"},
	{name: "journal.open_us_per_routine", unit: "us", better: "lower"},
	{name: "journal.bytes_per_routine", unit: "B", better: "lower"},
	{name: "telemetry.scrape_us", unit: "us", better: "lower"},
	{name: "telemetry.scrape_bytes", unit: "B", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.heap_end_mb", unit: "MB", better: "lower"},
	{name: "trace.b0_p50_us", unit: "us", better: "lower"},
	{name: "trace.b0_p99_us", unit: "us", better: "lower"},
	{name: "trace.b1_p50_us", unit: "us", better: "lower"},
	{name: "trace.b2_p50_us", unit: "us", better: "lower"},
	{name: "trace.b3_p50_us", unit: "us", better: "lower"},
	{name: "trace.b4_p50_us", unit: "us", better: "lower"},
	{name: "trace.unaccounted_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

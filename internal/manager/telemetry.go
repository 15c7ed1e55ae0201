package manager

import (
	"slices"
	"sync"
	"time"

	"safehome/internal/journal"
	"safehome/internal/live"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
)

// managerTelemetry owns the manager's /metrics surface: the registry, the
// fleet-shared in-loop instruments, the journal stats atomics, and a
// TTL-cached Status so one scrape costs one shard walk at most every
// statusTTL regardless of scrape rate or home count.
type managerTelemetry struct {
	reg  *telemetry.Registry
	loop *rt.LoopMetrics
	sup  *rt.SupervisionMetrics // shared by every shard's slots

	// jstats is shared by every home journal and every shard GroupWriter:
	// fleet-wide totals, no per-home cardinality. onCycle feeds the writers'
	// sync cycles into the two cycle histograms.
	jstats                   *journal.Stats
	cycleBytes, cycleCommits *telemetry.Histogram

	// Hibernation lifecycle.
	freezes     *telemetry.Counter
	wakes       *telemetry.Counter
	wakeSeconds *telemetry.Histogram

	// Status-derived gauges are served from this cache: scraping must never
	// turn into N×(shard walk) under a scrape storm.
	statusMu sync.Mutex
	statusAt time.Time
	status   Status
}

// statusTTL bounds how stale the status-derived gauges may be. Well under
// any sane scrape interval, while capping the walk rate at ~2/s.
const statusTTL = 500 * time.Millisecond

// newManagerTelemetry registers every manager-level family. Called once from
// New, before the shard writers open (they take jstats and the cycle hooks)
// and before the shards (their supervision takes sup).
func newManagerTelemetry(m *Manager) *managerTelemetry {
	t := &managerTelemetry{reg: telemetry.NewRegistry()}
	t.loop = rt.NewLoopMetrics(t.reg)
	t.registerJournal()

	t.reg.CounterFunc("safehome_manager_submitted_total", "Routines accepted across all homes.", m.submitted.Total)
	t.reg.CounterFunc("safehome_manager_committed_total", "Routines committed across all homes.", m.committed.Total)
	t.reg.CounterFunc("safehome_manager_aborted_total", "Routines aborted across all homes.", m.aborted.Total)
	t.reg.CounterFunc("safehome_manager_sim_events_total", "Simulator events processed across all homes.", m.simEvents.Total)

	t.sup = rt.NewSupervisionMetrics(t.reg)

	t.freezes = t.reg.Counter("safehome_hibernation_freezes_total", "Homes collapsed to a frozen checkpoint.")
	t.wakes = t.reg.Counter("safehome_hibernation_wakes_total", "Frozen homes reanimated from checkpoint + journal tail.")
	t.wakeSeconds = t.reg.Histogram("safehome_hibernation_wake_seconds",
		"Wall-clock latency of reanimating a frozen home, entry to runtime published.",
		telemetry.DefBuckets())

	t.reg.Collect(m.collectStatusGauges)
	if m.bound() {
		t.reg.Collect(m.collectBreakers)
	}
	return t
}

// registerJournal registers the journal families over a fresh jstats.
func (t *managerTelemetry) registerJournal() {
	s, reg := new(journal.Stats), t.reg
	t.jstats = s
	reg.CounterFunc("safehome_journal_appends_total", "Batch records appended to the write-ahead journal, all homes.", s.Appends.Load)
	reg.CounterFunc("safehome_journal_appended_bytes_total", "Framed bytes appended to the write-ahead journal, all homes.", s.AppendedBytes.Load)
	reg.CounterFunc("safehome_journal_fsyncs_total", "Journal data fsyncs (writer sync cycles).", s.Fsyncs.Load)
	reg.CounterFunc("safehome_journal_checkpoints_total", "Checkpoint images durably published, all homes.", s.Checkpoints.Load)
	reg.CounterFunc("safehome_journal_scanned_records_total", "Log records recovery read past their frame check (boot scan and per-home tail reads).", s.ScannedRecords.Load)
	reg.CounterFunc("safehome_journal_decoded_records_total", "Log records whose body recovery decoded: those it replays, plus any whose home its prefix does not name.", s.DecodedRecords.Load)
	reg.GaugeFunc("safehome_journal_checkpoint_age_seconds", "Seconds since the most recent checkpoint of any home (-1 until one lands).", func() float64 {
		last := s.LastCheckpointUnixNano.Load()
		if last == 0 {
			return -1
		}
		return time.Since(time.Unix(0, last)).Seconds()
	})
	t.cycleBytes = reg.Histogram("safehome_journal_group_cycle_bytes",
		"Bytes made durable per writer fsync cycle (the group-commit coalescing factor in bytes).",
		telemetry.ExponentialBuckets(256, 4, 10))
	t.cycleCommits = reg.Histogram("safehome_journal_group_cycle_commits",
		"Commit tickets released per writer fsync cycle (how many homes' commits rode one fsync).",
		telemetry.ExponentialBuckets(1, 2, 10))
}

// onCycle is every writer's OnCycle hook. It runs with the writer's lock
// held, so it stays a pair of plain observations.
func (t *managerTelemetry) onCycle(bytes int64, commits int) {
	t.cycleBytes.Observe(float64(bytes))
	t.cycleCommits.Observe(float64(commits))
}

// cachedStatus returns a Status at most statusTTL old, walking the shards
// only when the cache has expired.
func (m *Manager) cachedStatus() Status {
	t := m.tel
	t.statusMu.Lock()
	defer t.statusMu.Unlock()
	if !t.statusAt.IsZero() && time.Since(t.statusAt) < statusTTL {
		return t.status
	}
	t.status = m.Status()
	t.statusAt = time.Now()
	return t.status
}

// collectStatusGauges emits the families whose values come from the cached
// shard walk: home counts by state and the fleet mailbox totals.
func (m *Manager) collectStatusGauges(e *telemetry.Emitter) {
	st := m.cachedStatus()
	live := st.Homes - st.Frozen
	if live < 0 {
		live = 0
	}
	e.Family("safehome_homes", telemetry.TypeGauge, "Registered homes by lifecycle state: live (runtime resident), frozen (hibernated to checkpoint), restarting (supervisor rebuilding now).")
	e.Value(float64(live), "state", "live")
	e.Value(float64(st.Frozen), "state", "frozen")
	e.Value(float64(m.tel.sup.Restarting.Load()), "state", "restarting")

	e.Family("safehome_mailbox_accepted_total", telemetry.TypeCounter, "Operations accepted into home mailboxes, all homes (sampled at most every 500ms).")
	e.Value(float64(st.Accepted))
	e.Family("safehome_mailbox_rejected_total", telemetry.TypeCounter, "Operations shed (HTTP 429) by full home mailboxes, all homes (sampled at most every 500ms).")
	e.Value(float64(st.Rejected))
	e.Family("safehome_mailbox_depth", telemetry.TypeGauge, "Operations currently queued across all home mailboxes.")
	e.Value(float64(st.Depth))
}

// collectBreakers emits the per-device circuit-breaker families of a bound
// manager's homes from their breaker stats (Env-lock reads, no mailbox).
func (m *Manager) collectBreakers(e *telemetry.Emitter) {
	var ids []HomeID
	stats := map[HomeID][]live.BreakerStats{}
	for _, sh := range m.shards {
		for id, slot := range sh.snapshot() {
			if home := slot.rt.Load(); home != nil {
				ids, stats[id] = append(ids, id), home.Breakers()
			}
		}
	}
	slices.Sort(ids)
	for _, f := range breakerFamilies {
		e.Family(f.name, f.typ, f.help)
		for _, id := range ids {
			for _, b := range stats[id] {
				e.Value(f.value(b), "home", string(id), "device", string(b.Device))
			}
		}
	}
}

var breakerFamilies = []struct {
	name, typ, help string
	value           func(live.BreakerStats) float64
}{
	{"safehome_breaker_opens_total", telemetry.TypeCounter, "Times a device's circuit breaker tripped open.",
		func(b live.BreakerStats) float64 { return float64(b.Opens) }},
	{"safehome_breaker_half_opens_total", telemetry.TypeCounter, "Times an open breaker admitted a half-open probe.",
		func(b live.BreakerStats) float64 { return float64(b.HalfOpens) }},
	{"safehome_breaker_short_circuits_total", telemetry.TypeCounter, "Commands failed fast on an open breaker, per device.",
		func(b live.BreakerStats) float64 { return float64(b.ShortCircuits) }},
	{"safehome_breaker_open", telemetry.TypeGauge, "1 when the device's breaker is open or half-open, 0 when closed.",
		func(b live.BreakerStats) float64 {
			if b.State != "closed" {
				return 1
			}
			return 0
		}},
}

// Telemetry returns the manager's metrics registry — the handler behind
// `GET /metrics` in both modes (the single-home hub serves its one-home
// manager's).
func (m *Manager) Telemetry() *telemetry.Registry { return m.tel.reg }

package manager

import (
	"sync"
	"time"

	"safehome/internal/journal"
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

	// jstats is shared by every home journal and every shard GroupWriter;
	// onCycle observes the writers' sync cycles (rt.NewJournalMetrics).
	jstats  *journal.Stats
	onCycle func(bytes int64, commits int)

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
	t.jstats, t.onCycle = rt.NewJournalMetrics(t.reg)

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
	return t
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

// Telemetry returns the manager's metrics registry — the handler behind
// `GET /metrics` in manager mode.
func (m *Manager) Telemetry() *telemetry.Registry { return m.tel.reg }

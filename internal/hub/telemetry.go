package hub

import (
	"safehome/internal/journal"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
)

// hubTelemetry owns the single-home hub's /metrics surface. The same family
// names as the manager's (NewLoopMetrics, NewJournalMetrics and
// NewSupervisionMetrics are shared), so dashboards work unchanged against
// either mode; the hub adds the per-device breaker families the simulated
// manager homes don't have.
type hubTelemetry struct {
	reg  *telemetry.Registry
	loop *rt.LoopMetrics
	sup  *rt.SupervisionMetrics
	// jstats and onCycle outlive runtime generations: a supervised restart
	// keeps appending to the same journal totals.
	jstats  *journal.Stats
	onCycle func(bytes int64, commits int)
}

// newHubTelemetry registers the hub's families. Called once from New, before
// the group writer opens and before the first runtime generation is built.
func newHubTelemetry(h *Hub) *hubTelemetry {
	t := &hubTelemetry{reg: telemetry.NewRegistry()}
	t.loop = rt.NewLoopMetrics(t.reg)
	t.jstats, t.onCycle = rt.NewJournalMetrics(t.reg)
	t.sup = rt.NewSupervisionMetrics(t.reg)

	t.reg.CounterFunc("safehome_mailbox_accepted_total", "Operations accepted into the home mailbox.", func() int64 {
		return h.slot.Load().Mailbox().Accepted
	})
	t.reg.CounterFunc("safehome_mailbox_rejected_total", "Operations shed (HTTP 429) by the full home mailbox.", func() int64 {
		return h.slot.Load().Mailbox().Rejected
	})
	t.reg.GaugeFunc("safehome_mailbox_depth", "Operations currently queued in the home mailbox.", func() float64 {
		return float64(h.slot.Load().Mailbox().Depth)
	})

	// Per-device breaker families: dynamic label sets, so a collector walks
	// the current runtime's breaker stats at scrape time (Env-lock read, no
	// mailbox involved).
	t.reg.Collect(func(e *telemetry.Emitter) {
		stats := h.slot.Load().Breakers()
		e.Family("safehome_breaker_opens_total", telemetry.TypeCounter, "Times a device's circuit breaker tripped open.")
		for _, b := range stats {
			e.Value(float64(b.Opens), "device", string(b.Device))
		}
		e.Family("safehome_breaker_half_opens_total", telemetry.TypeCounter, "Times an open breaker admitted a half-open probe.")
		for _, b := range stats {
			e.Value(float64(b.HalfOpens), "device", string(b.Device))
		}
		e.Family("safehome_breaker_short_circuits_total", telemetry.TypeCounter, "Commands failed fast on an open breaker, per device.")
		for _, b := range stats {
			e.Value(float64(b.ShortCircuits), "device", string(b.Device))
		}
		e.Family("safehome_breaker_open", telemetry.TypeGauge, "1 when the device's breaker is open or half-open, 0 when closed.")
		for _, b := range stats {
			v := 0.0
			if b.State != "closed" {
				v = 1
			}
			e.Value(v, "device", string(b.Device))
		}
	})
	return t
}

// Telemetry returns the hub's metrics registry — the handler behind
// `GET /metrics` in single-home mode.
func (h *Hub) Telemetry() *telemetry.Registry { return h.tel.reg }

package hub

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
	"safehome/internal/visibility"
)

// scrape GETs /metrics off a handler and returns the parsed families, failing
// the exposition through the package's own linter first.
func scrape(t *testing.T, srv http.Handler) map[string]*telemetry.Family {
	t.Helper()
	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	if problems := telemetry.Lint(body); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	fams, err := telemetry.Parse(body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return fams
}

// TestHubMetricsExpositionLints is the CI exposition gate for single-home
// mode: after real traffic the hub's /metrics page must parse, lint clean,
// and carry the in-loop stage histograms and breaker families.
func TestHubMetricsExpositionLints(t *testing.T) {
	h, _ := newTestHub(t)
	for i := 0; i < 5; i++ {
		if _, err := h.SubmitRoutine(coolingRoutine()); err != nil {
			t.Fatalf("SubmitRoutine: %v", err)
		}
	}
	waitIdle(t, h)

	fams := scrape(t, h.Handler())
	stage, ok := fams["safehome_routine_stage_seconds"]
	if !ok {
		t.Fatal("no safehome_routine_stage_seconds family")
	}
	counts := map[string]float64{}
	for _, s := range stage.Samples {
		if s.Name == "safehome_routine_stage_seconds_count" {
			counts[s.Labels["stage"]] = s.Value
		}
	}
	if counts["place"] < 5 {
		t.Errorf("stage=place count = %v, want >= 5", counts["place"])
	}
	if counts["done"] < 5 {
		t.Errorf("stage=done count = %v, want >= 5 (observer tap not wired?)", counts["done"])
	}
	if tot := telemetry.CounterTotals(fams); tot["safehome_mailbox_accepted_total"] < 5 {
		t.Errorf("mailbox accepted = %v, want >= 5", tot["safehome_mailbox_accepted_total"])
	}
	if _, ok := fams["safehome_breaker_open"]; !ok {
		t.Error("no per-device safehome_breaker_open family")
	}
}

// TestManagerMetricsExpositionLints is the same gate for fleet mode,
// against a journaled group-tier manager so the journal families carry
// real fsync/append counts.
func TestManagerMetricsExpositionLints(t *testing.T) {
	m := manager.New(manager.Config{
		Shards:  2,
		DataDir: t.TempDir(),
		Journal: journal.Options{Mode: journal.ModeGroup},
		Home:    manager.HomeConfig{Model: visibility.EV},
	})
	t.Cleanup(m.Close)
	if err := m.AddHome("apt-1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"routine_name":"lights","commands":[{"device":"plug-0","action":"ON"}]}`)
	for i := 0; i < 5; i++ {
		if _, err := m.SubmitSpec("apt-1", spec); err != nil {
			t.Fatal(err)
		}
	}

	fams := scrape(t, ManagerHandler(m, 2))
	tot := telemetry.CounterTotals(fams)
	if tot["safehome_manager_submitted_total"] < 5 {
		t.Errorf("manager submitted = %v, want >= 5", tot["safehome_manager_submitted_total"])
	}
	if tot["safehome_journal_appends_total"] == 0 {
		t.Error("journaled manager scraped zero journal appends")
	}
	if tot["safehome_journal_fsyncs_total"] == 0 {
		t.Error("journaled group-tier manager scraped zero fsyncs")
	}
	homes, ok := fams["safehome_homes"]
	if !ok {
		t.Fatal("no safehome_homes state gauge family")
	}
	byState := map[string]float64{}
	for _, s := range homes.Samples {
		byState[s.Labels["state"]] = s.Value
	}
	if byState["live"] != 1 || byState["frozen"] != 0 {
		t.Errorf("safehome_homes = %v, want live=1 frozen=0", byState)
	}
}

// TestMetricsScrapeUnderLoad races scrapes against live submit traffic
// (run under -race in CI): every exposition must parse and lint clean
// mid-write, histogram +Inf must equal _count (Lint checks both), and
// counters must be monotone across successive scrapes.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	m := manager.New(manager.Config{
		Shards:  4,
		DataDir: t.TempDir(),
		Journal: journal.Options{Mode: journal.ModeGroup},
		Home:    manager.HomeConfig{Model: visibility.EV},
	})
	t.Cleanup(m.Close)
	const homes = 8
	for i := 0; i < homes; i++ {
		id := manager.HomeID(fmt.Sprintf("apt-%d", i))
		if err := m.AddHome(id, device.Plugs(2).All()...); err != nil {
			t.Fatal(err)
		}
	}
	srv := ManagerHandler(m, 2)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := []byte(`{"routine_name":"load","commands":[{"device":"plug-1","action":"ON"}]}`)
			for i := 0; i < 40; i++ {
				id := manager.HomeID(fmt.Sprintf("apt-%d", (w*40+i)%homes))
				if _, err := m.SubmitSpec(id, spec); err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := map[string]float64{}
			for i := 0; i < 25; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("scrape %d: status %d", i, rec.Code)
					return
				}
				body := rec.Body.String()
				if problems := telemetry.Lint(body); len(problems) != 0 {
					errs <- fmt.Errorf("scrape %d lint: %v", i, problems)
					return
				}
				fams, err := telemetry.Parse(body)
				if err != nil {
					errs <- fmt.Errorf("scrape %d parse: %w", i, err)
					return
				}
				for name, v := range telemetry.CounterTotals(fams) {
					if v < prev[name] {
						errs <- fmt.Errorf("scrape %d: counter %s went backwards %v -> %v", i, name, prev[name], v)
						return
					}
					prev[name] = v
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Final quiesced scrape: everything submitted is visible.
	tot := telemetry.CounterTotals(scrape(t, srv))
	if tot["safehome_manager_submitted_total"] < 160 {
		t.Errorf("submitted total = %v, want >= 160", tot["safehome_manager_submitted_total"])
	}
}

// familiesWithPrefix describes the families of a scrape whose names start
// with prefix as sorted "name type [le ...]" lines: the part of the
// exposition dashboards bind to (help text is free to change).
func familiesWithPrefix(fams map[string]*telemetry.Family, prefix string) []string {
	var out []string
	for name, f := range fams {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		line := name + " " + f.Type
		for _, s := range f.Samples {
			if le, ok := s.Labels["le"]; ok {
				line += " " + le
			}
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// TestJournalFamiliesAreOneSet: the hub and the manager register the journal
// telemetry through the same helper, so both surfaces expose exactly the
// family set — names, types, bucket ladders — frozen here from the commit
// before the registration was shared.
func TestJournalFamiliesAreOneSet(t *testing.T) {
	frozen := []string{
		"safehome_journal_appended_bytes_total counter",
		"safehome_journal_appends_total counter",
		"safehome_journal_checkpoint_age_seconds gauge",
		"safehome_journal_checkpoints_total counter",
		"safehome_journal_decoded_records_total counter",
		"safehome_journal_fsyncs_total counter",
		"safehome_journal_group_cycle_bytes histogram 256 1024 4096 16384 65536 262144 1.048576e+06 4.194304e+06 1.6777216e+07 6.7108864e+07 +Inf",
		"safehome_journal_group_cycle_commits histogram 1 2 4 8 16 32 64 128 256 512 +Inf",
		"safehome_journal_scanned_records_total counter",
	}
	h, _ := newTestHub(t)
	m := manager.New(manager.Config{Shards: 2, Home: manager.HomeConfig{Model: visibility.EV}})
	t.Cleanup(m.Close)
	for surface, srv := range map[string]http.Handler{"hub": h.Handler(), "manager": ManagerHandler(m, 2)} {
		if got := familiesWithPrefix(scrape(t, srv), "safehome_journal_"); !slices.Equal(got, frozen) {
			t.Errorf("%s journal families:\n%s\nwant:\n%s", surface, strings.Join(got, "\n"), strings.Join(frozen, "\n"))
		}
	}
}

// TestSupervisionFamiliesAreOneSet: the hub and the manager register the
// supervision counters through rt.NewSupervisionMetrics, so both surfaces
// expose the same three families, and a poison, a restart and a quarantine
// each move them.
func TestSupervisionFamiliesAreOneSet(t *testing.T) {
	frozen := []string{
		"safehome_supervision_poisons_total counter",
		"safehome_supervision_quarantines_total counter",
		"safehome_supervision_restarts_total counter",
	}
	h := newSupervisedHub(t, rt.SupervisorConfig{Backoff: time.Millisecond, BackoffCap: time.Millisecond})
	m := manager.New(manager.Config{Shards: 1, Supervisor: rt.SupervisorConfig{Disable: true}})
	t.Cleanup(m.Close)
	if err := m.AddHome("apt-1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	home, err := m.Runtime("apt-1")
	if err != nil {
		t.Fatal(err)
	}
	// The hub restarts its poisoned home; the manager, with supervision
	// disabled, quarantines its one.
	h.Runtime().PostTimer(func() { panic("test: hub fault") })
	home.PostTimer(func() { panic("test: manager fault") })
	want := map[string]map[string]float64{
		"hub":     {"safehome_supervision_poisons_total": 1, "safehome_supervision_restarts_total": 1, "safehome_supervision_quarantines_total": 0},
		"manager": {"safehome_supervision_poisons_total": 1, "safehome_supervision_restarts_total": 0, "safehome_supervision_quarantines_total": 1},
	}
	for surface, srv := range map[string]http.Handler{"hub": h.Handler(), "manager": ManagerHandler(m, 2)} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			fams := scrape(t, srv)
			if got := familiesWithPrefix(fams, "safehome_supervision_"); !slices.Equal(got, frozen) {
				t.Fatalf("%s supervision families:\n%s\nwant:\n%s", surface, strings.Join(got, "\n"), strings.Join(frozen, "\n"))
			}
			tot := telemetry.CounterTotals(fams)
			settled := true
			for name, v := range want[surface] {
				settled = settled && tot[name] == v
			}
			if settled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s supervision counters = %v, want %v", surface, tot, want[surface])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

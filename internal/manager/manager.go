// Package manager scales SafeHome from one home to many: a sharded,
// multi-tenant HomeManager that owns N independent homes, each one a
// self-contained home runtime (internal/runtime) with its own visibility
// controller, device fleet, clock and typed operation mailbox, partitioned
// across worker shards.
//
// Every home is hashed to one shard (FNV-1a of the home ID modulo the shard
// count) and every operation on that home — submitting a routine, injecting
// a failure, reading results — is a typed op posted into the home's mailbox
// and applied by the home's single loop goroutine. This preserves the
// visibility controllers' single-threaded execution contract (see
// internal/visibility) without any per-home locking, and adds admission
// control: when a home's mailbox is full, mutating operations return
// ErrOverloaded (HTTP 429 through hub.ManagerHandler) instead of blocking
// callers indefinitely.
//
// Shards are thin owners: each one holds the routing map for its subset of
// homes, a lane in the lock-free cross-shard counters (internal/stats), and
// — under ClockLive — the pumper goroutine that advances its homes'
// simulators to the wall clock, skipping homes with no simulator event due.
//
// Homes run on either a virtual or a live clock:
//
//   - ClockVirtual: each mutating operation drains the home's discrete-event
//     simulator, so a 40-minute routine finishes in microseconds of real
//     time. This is the mode the multi-tenant experiments and benchmarks use.
//   - ClockLive: each shard's pumper advances its homes' simulators up to the
//     wall clock on a fixed interval, so a routine scheduled 5 s out fires
//     5 s later in real time. This is the mode the multi-tenant hub serves.
//
// A manager whose HomeConfig binds homes to devices (HomeConfig.Actuator)
// runs them on the wall clock over their actuators instead, each with a
// failure detector; the single-home hub is such a manager with one home.
//
// See ARCHITECTURE.md at the repository root for how the manager layers
// between the public API and the per-home runtime/visibility machinery.
package manager

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/stats"
	"safehome/internal/visibility"
)

// HomeID identifies one tenant home within a manager.
type HomeID string

// Clock selects how a manager's homes experience time.
type Clock int

const (
	// ClockVirtual drains each home's simulator after every operation:
	// routines run to completion at virtual speed. Best for experiments,
	// benchmarks and tests.
	ClockVirtual Clock = iota
	// ClockLive advances each home's simulator to the wall clock on a pump
	// interval: routines take real time. Best for serving the HTTP API.
	ClockLive
)

func (c Clock) String() string {
	switch c {
	case ClockVirtual:
		return "virtual"
	case ClockLive:
		return "live"
	default:
		return fmt.Sprintf("clock(%d)", int(c))
	}
}

// Errors returned by manager operations.
var (
	// ErrClosed is returned by mutating calls after Close (aliased from the
	// home runtime, which reports it for per-home operations).
	ErrClosed = rt.ErrClosed
	// ErrOverloaded is returned when a home's mailbox is full and a mutating
	// operation was load-shed; callers should back off and retry (HTTP 429).
	ErrOverloaded = rt.ErrOverloaded
	// ErrUnknownHome is returned (wrapped, with the ID) for missing homes.
	ErrUnknownHome = errors.New("manager: unknown home")
	// ErrDuplicateHome is returned (wrapped) when re-adding an existing home.
	ErrDuplicateHome = errors.New("manager: home already exists")
	// ErrPoisoned is returned to operations parked in a home whose loop
	// panicked (aliased from the home runtime).
	ErrPoisoned = rt.ErrPoisoned
	// ErrRestarting is returned (wrapped, with the ID) while a poisoned home
	// is being restarted by its shard's supervisor; callers should back off
	// and retry (HTTP 503 with Retry-After).
	ErrRestarting = errors.New("manager: home is restarting")
	// ErrQuarantined is returned (wrapped, with the ID) for a home taken out
	// of service after exhausting its restart budget.
	ErrQuarantined = errors.New("manager: home is quarantined")
)

// HomeConfig selects the visibility model and tuning knobs applied to every
// home the manager creates.
type HomeConfig struct {
	// Model is the visibility model. The zero value is WV (the status-quo
	// model), as in every layer; most deployments want EV.
	Model visibility.Model
	// Scheduler is the EV scheduling policy (default Timeline).
	Scheduler visibility.SchedulerKind
	// DefaultShort is the assumed hold of zero-duration commands.
	DefaultShort time.Duration
	// Actuator binds every home to devices: a bound home runs on the wall
	// clock over the actuator this returns for it (called once per home), its
	// failure detector probing from Start on, and never hibernates. Nil (the
	// default) gives every home a simulated fleet.
	Actuator func(id HomeID, reg *device.Registry) device.Actuator
	// FailureInterval is a bound home's failure-detector probe period
	// (default 1s).
	FailureInterval time.Duration
}

// Config configures a Manager.
type Config struct {
	// Shards is the number of worker shards (default 4, minimum 1).
	Shards int
	// QueueDepth bounds each home's operation mailbox (default 128). A full
	// mailbox sheds mutating operations with ErrOverloaded.
	QueueDepth int
	// Batch is the maximum operations a home's loop drains per wakeup
	// (default 32), amortizing channel signaling under load.
	Batch int
	// Clock selects virtual or live time (default ClockVirtual).
	Clock Clock
	// EventLog caps each home's in-memory activity log; 0 (the default)
	// disables per-home event logs — at millions of homes the memory is
	// better spent elsewhere. Enable it to serve /homes/{id}/events.
	EventLog int
	// DataDir enables durability: every home persists its record (its
	// checkpoint) and a write-ahead journal under <DataDir>/homes/<id>, and
	// RecoverHomes rediscovers and recovers all of them on the next boot
	// (finished results, committed states and event cursors come back
	// exactly; routines in flight at the crash come back Aborted). Empty
	// keeps the manager memory-only.
	DataDir string
	// Journal tunes every home's write-ahead journal; only meaningful with
	// DataDir set. Homes share one segment stream per shard under
	// <DataDir>/wal in every tier. Journal.Mode selects the tier — the
	// manager defaults it to group (many homes per shard is exactly what
	// group commit is for): commits gather behind a short window and ride
	// one fsync cycle. Mode sync closes the window (a commit never waits for
	// company, concurrent ones still share a cycle); async acknowledges
	// ahead of the disk behind Journal.AsyncWindowBytes.
	Journal journal.Options
	// HibernateAfter enables hibernation: a healthy home idle this long —
	// no admitted mutating operation, empty mailbox, nothing pending or
	// active, no simulator event imminent — takes a final checkpoint and
	// collapses to a frozen summary of a few hundred bytes; any submit,
	// query or due trigger deadline reanimates it from checkpoint + journal
	// tail. With it set, AddHome registers state-less and cleanly
	// hibernated homes cold (no runtime until first touch), which is what
	// lets one process hold millions of registered homes. Requires DataDir
	// (a memory-only home has nothing to wake from); the automatic idle
	// sweep runs under ClockLive, while FreezeIdle/FreezeHome work under
	// any clock. 0 disables hibernation.
	HibernateAfter time.Duration
	// Supervisor tunes panic recovery: a home whose loop panics is poisoned,
	// torn down, and restarted by its shard's supervisor (from its journal
	// when durable, empty otherwise) with capped exponential backoff, then
	// quarantined after five consecutive failures. The zero value
	// enables supervision with defaults; set Supervisor.Disable to quarantine
	// a home on its first poison instead of restarting it.
	Supervisor rt.SupervisorConfig
	// Home configures every home the manager creates.
	Home HomeConfig

	// pumpInterval is the live-clock advance period (default 10 ms); tests
	// shorten it.
	pumpInterval time.Duration
}

func (c Config) normalized() Config {
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = rt.DefaultMailboxDepth
	}
	if c.Batch < 1 {
		c.Batch = rt.DefaultBatch
	}
	if c.pumpInterval <= 0 {
		c.pumpInterval = 10 * time.Millisecond
	}
	if c.Home.Actuator != nil {
		c.Clock = ClockLive // wall-clock homes, with no simulator to pump
	}
	if c.DataDir == "" || c.Home.Actuator != nil {
		c.HibernateAfter = 0 // nothing durable to wake from, or devices to watch
	}
	return c
}

// bound reports whether the manager's homes are bound to devices.
func (m *Manager) bound() bool { return m.cfg.Home.Actuator != nil }

// hibernating reports whether the manager registers and parks homes cold.
func (m *Manager) hibernating() bool { return m.cfg.HibernateAfter > 0 }

// Manager owns and schedules many independent home runtimes across worker
// shards. All methods are safe for concurrent use. After Close, mutating
// methods return ErrClosed and read-only methods answer from the quiesced
// state.
type Manager struct {
	cfg    Config
	shards []*shard

	stop chan struct{} // closed to stop the live-clock pumpers
	wg   sync.WaitGroup

	mu     sync.Mutex // serializes Close and Crash
	closed bool

	// detecting is set by Start: every bound generation built after it arms
	// its own failure detector, so a supervised restart needs no callback.
	detecting atomic.Bool

	since time.Time

	// Lock-free cross-shard totals; one lane per shard.
	submitted *stats.ShardedCounter
	committed *stats.ShardedCounter
	aborted   *stats.ShardedCounter
	simEvents *stats.ShardedCounter

	// tel is the /metrics surface: registry, fleet-shared loop instruments,
	// supervision totals across all shards, journal stats, and the
	// TTL-cached status gauges.
	tel *managerTelemetry

	// Durability wiring: every journaled home on shard i appends through
	// writers[i % len(writers)] — one shared segment stream and one fsync
	// cycle per writer instead of one per home, with at most min(shards,
	// GOMAXPROCS) writers. The fleet's wal.lock makes the manager the one
	// owner of its data directory; writerErr records a failed open (another
	// live owner, an unwritable disk), after which AddHome and RecoverHomes
	// refuse and nothing is written under homes/.
	durability journal.Mode
	writers    []*journal.GroupWriter
	writerErr  error

	// Hibernation wiring: the deadline heap of frozen homes' earliest
	// scheduled-trigger deadlines, drained by the waker goroutine so a
	// hibernated home's alarm still fires on time.
	wakeQMu  sync.Mutex
	wakeQ    wakeHeap
	wakeKick chan struct{}
}

// New builds and starts a manager. The returned manager has no homes; add
// them with AddHome or AddHomes.
func New(cfg Config) *Manager {
	cfg = cfg.normalized()
	m := &Manager{
		cfg:       cfg,
		stop:      make(chan struct{}),
		since:     time.Now(),
		submitted: stats.NewShardedCounter(cfg.Shards),
		committed: stats.NewShardedCounter(cfg.Shards),
		aborted:   stats.NewShardedCounter(cfg.Shards),
		simEvents: stats.NewShardedCounter(cfg.Shards),
		wakeKick:  make(chan struct{}, 1),
	}
	m.tel = newManagerTelemetry(m)
	if cfg.DataDir != "" {
		m.durability = journal.ResolveMode(cfg.Journal, journal.ModeGroup)
		// One writer per shard, but never more than GOMAXPROCS: each
		// in-flight fsync burns a core's worth of kernel journaling time, so
		// extra streams past the core count only raise the fsync rate without
		// adding parallelism — fewer, busier writers coalesce more commits per
		// fsync. Shards then share writers round-robin.
		wopts := journal.WriterOptionsFor(m.durability)
		wopts.Stats, wopts.OnCycle = m.tel.jstats, m.tel.onCycle
		// A failed open keeps New's no-error signature: the adds refuse with
		// it and Status surfaces it.
		m.writers, m.writerErr = journal.OpenWriters(filepath.Join(cfg.DataDir, "wal"), min(cfg.Shards, runtime.GOMAXPROCS(0)), wopts)
		if m.writerErr == nil { // under the fleet's lock
			m.writerErr = m.upgradeDataDir()
		}
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		sh := newShard(m, i)
		m.shards[i] = sh
		if cfg.Clock == ClockLive && !m.bound() {
			m.wg.Add(1)
			go sh.runPump()
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			sh.sv.Run() // restarts this shard's poisoned homes one at a time
		}()
	}
	if cfg.DataDir != "" && !m.bound() {
		// The waker serves explicit freezes too, so it runs whenever homes
		// can be frozen at all — not only with automatic hibernation on.
		m.wg.Add(1)
		go m.runWaker()
	}
	if m.hibernating() && cfg.Clock == ClockLive {
		m.wg.Add(1)
		go m.runFreezer()
	}
	return m
}

// NumShards returns the shard count.
func (m *Manager) NumShards() int { return m.cfg.Shards }

// Clock returns the manager's clock mode.
func (m *Manager) Clock() Clock { return m.cfg.Clock }

// ShardOf returns the shard a home ID deterministically routes to.
func (m *Manager) ShardOf(id HomeID) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(m.cfg.Shards))
}

// runtimeConfig builds one home's runtime configuration, wiring the shard's
// counter lane into the observer and sim-event plumbing and the slot's
// poison hook into OnPoison.
func (m *Manager) runtimeConfig(id HomeID, shard int, onPoison func(error)) rt.Config {
	clock := rt.ClockVirtual
	if m.cfg.Clock == ClockLive {
		clock = rt.ClockPaced
	}
	jopts := m.cfg.Journal
	jopts.Mode = m.durability
	jopts.HomeID = string(id)
	jopts.Writer = m.shardWriter(shard)
	return rt.Config{
		ID:              string(id),
		Clock:           clock,
		Model:           m.cfg.Home.Model,
		Scheduler:       m.cfg.Home.Scheduler,
		DefaultShort:    m.cfg.Home.DefaultShort,
		FailureInterval: m.cfg.Home.FailureInterval,
		MailboxDepth:    m.cfg.QueueDepth,
		Batch:           m.cfg.Batch,
		EventLog:        m.cfg.EventLog,
		DataDir:         m.homeDir(id),
		Journal:         jopts,
		Observer: func(e visibility.Event) {
			switch e.Kind {
			case visibility.EvSubmitted:
				m.submitted.Add(shard, 1)
			case visibility.EvCommitted:
				m.committed.Add(shard, 1)
			case visibility.EvAborted:
				m.aborted.Add(shard, 1)
			}
		},
		OnSimEvents: func(n int) { m.simEvents.Add(shard, int64(n)) },
		OnPoison:    onPoison,
		Metrics:     m.tel.loop,
	}
}

// shardWriter returns the writer the shard's homes append through (nil when
// the manager is memory-only).
func (m *Manager) shardWriter(shard int) *journal.GroupWriter {
	if len(m.writers) == 0 {
		return nil
	}
	return m.writers[shard%len(m.writers)]
}

// homeDir returns the home's durable directory ("" when the manager is
// memory-only).
func (m *Manager) homeDir(id HomeID) string {
	if m.cfg.DataDir == "" {
		return ""
	}
	return HomeDir(m.cfg.DataDir, id)
}

// HomeDir returns <dataDir>/homes/<id>, where a manager keeps the home's
// durable state. IDs are path-escaped, so none can traverse outside dataDir.
func HomeDir(dataDir string, id HomeID) string {
	return filepath.Join(dataDir, "homes", url.PathEscape(string(id)))
}

// writerFor returns the writer the home's journal appends through (nil when
// the manager is memory-only).
func (m *Manager) writerFor(home string) *journal.GroupWriter {
	return m.shardWriter(m.ShardOf(HomeID(home)))
}

// openRecord makes the home's checkpoint its durable record (ID, devices,
// the summary of a frozen home) before its first generation is built, and
// returns the summary when the home should register cold. Only the add that
// reserved id calls it, so a home's record has one writer. head is the
// record's head if the caller has just read it (a boot), nil to read it.
//
// A home with no checkpoint gets an empty one headed by a fresh summary: it
// is frozen until its first append. A re-add with other devices re-heads
// the checkpoint.
func (m *Manager) openRecord(id HomeID, devices []device.Info, head *journal.Head) (*journal.FrozenHome, error) {
	dir := m.homeDir(id)
	if dir == "" {
		return nil, nil
	}
	var err error
	if head == nil {
		if head, err = journal.ReadHead(dir, m.writerFor); err != nil {
			return nil, err
		}
	}
	if head == nil || head.Home != string(id) || !slices.Equal(head.Devices, devices) {
		fr := m.freshSummary()
		if head != nil {
			fr = head.Frozen
		}
		if err := journal.PublishHead(dir, journal.Head{Home: string(id), Devices: devices, Frozen: fr}); err != nil {
			return nil, fmt.Errorf("manager: publishing the record of home %q: %w", id, err)
		}
		if head, err = journal.ReadHead(dir, m.writerFor); err != nil {
			return nil, err
		}
	}
	if !m.hibernating() {
		return nil, nil
	}
	return head.Frozen, nil
}

// freshSummary is the summary a home with no state registers cold with: it
// stays frozen until its first append.
func (m *Manager) freshSummary() *journal.FrozenHome {
	now := time.Now()
	return &journal.FrozenHome{Model: m.cfg.Home.Model.String(), Created: now, FrozenAt: now, NextSeq: 1}
}

// AddHome creates a home with the given devices on the home's shard. With a
// DataDir configured, the home's record and journal are persisted under
// <DataDir>/homes/<id>; re-adding a home whose directory already holds
// durable state recovers it. A manager whose writer fleet failed to open
// does not own its DataDir and refuses with that error.
func (m *Manager) AddHome(id HomeID, devices ...device.Info) error {
	if m.writerErr != nil {
		return fmt.Errorf("manager: %w", m.writerErr)
	}
	if id == "" {
		return errors.New("manager: empty home ID")
	}
	// PathEscape leaves "." and ".." untouched (unreserved characters), so
	// they would resolve to homes/ itself or the data dir root and lose
	// their durable state; every other ID escapes to a safe single segment.
	if id == "." || id == ".." {
		return fmt.Errorf("manager: invalid home ID %q", id)
	}
	if len(devices) == 0 {
		return fmt.Errorf("manager: home %q needs at least one device", id)
	}
	return m.shards[m.ShardOf(id)].add(id, devices, nil)
}

// RecoverHomes rediscovers every home persisted under the manager's DataDir
// and recovers it (results, committed states and event cursors exactly;
// in-flight routines aborted). Homes already present are skipped, so it is
// safe to call on a warm manager. It returns the recovered IDs, sorted.
//
// Homes recover in parallel, on min(GOMAXPROCS, homes) workers. After the
// first error no further home is started; the ones in flight finish, and
// the IDs recovered so far come back with that error. Like AddHome it
// refuses, reading nothing, when the writer fleet failed to open.
func (m *Manager) RecoverHomes() ([]HomeID, error) {
	if m.cfg.DataDir == "" {
		return nil, nil
	}
	if m.writerErr != nil {
		return nil, fmt.Errorf("manager: %w", m.writerErr)
	}
	root := filepath.Join(m.cfg.DataDir, "homes")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("manager: listing %s: %w", root, err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	var (
		mu        sync.Mutex
		next      int
		recovered []HomeID
		firstErr  error
		wg        sync.WaitGroup
	)
	// take hands out the next home directory, or none once they ran out or
	// any home failed.
	take := func() (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next == len(dirs) {
			return "", false
		}
		next++
		return dirs[next-1], true
	}
	for range min(runtime.GOMAXPROCS(0), len(dirs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, ok := take(); ok; name, ok = take() {
				id, err := m.recoverHome(filepath.Join(root, name))
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case err == nil && id != "":
					recovered = append(recovered, id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recovered, func(i, j int) bool { return recovered[i] < recovered[j] })
	return recovered, firstErr
}

// recoverHome re-adds the home persisted in dir and returns its ID — or ""
// when dir holds no home or the home is already present. The checkpoint's
// head names the home and its devices.
func (m *Manager) recoverHome(dir string) (HomeID, error) {
	head, err := journal.ReadHead(dir, m.writerFor)
	if err != nil {
		return "", fmt.Errorf("manager: reading the record of %s: %w", filepath.Base(dir), err)
	}
	if head == nil {
		return "", nil // no record: not a home directory
	}
	id := HomeID(head.Home)
	if err := m.shards[m.ShardOf(id)].add(id, head.Devices, head); err != nil {
		if errors.Is(err, ErrDuplicateHome) {
			return "", nil
		}
		return "", fmt.Errorf("manager: recovering home %q: %w", id, err)
	}
	return id, nil
}

// AddHomes creates n homes named <prefix>-0 .. <prefix>-(n-1), each with the
// given number of generic plug devices, and returns their IDs.
func (m *Manager) AddHomes(prefix string, n, plugs int) ([]HomeID, error) {
	ids := make([]HomeID, 0, n)
	for i := 0; i < n; i++ {
		id := HomeID(fmt.Sprintf("%s-%d", prefix, i))
		if err := m.AddHome(id, device.Plugs(plugs).All()...); err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Runtime returns the home's runtime, for introspection (mailbox stats,
// suspension in tests). Most callers should use the typed Manager methods.
// While the home is down it returns ErrRestarting or ErrQuarantined instead
// of handing out a poisoned runtime. Touching a hibernated home through
// here reanimates it: the wake is ordinary journal recovery behind a
// per-home singleflight guard.
func (m *Manager) Runtime(id HomeID) (*rt.HomeRuntime, error) {
	slot, err := m.slotOf(id)
	if err != nil {
		return nil, err
	}
	return m.runtimeOf(slot)
}

// Slot returns the supervised slot holding the home's runtime generations,
// whatever its health: the hub answers through it from the last generation
// while its home restarts or sits in quarantine.
func (m *Manager) Slot(id HomeID) (*rt.Slot, error) {
	slot, err := m.slotOf(id)
	if err != nil {
		return nil, err
	}
	return slot.rt, nil
}

// runtimeOf is Runtime for a slot already looked up.
func (m *Manager) runtimeOf(slot *homeSlot) (*rt.HomeRuntime, error) {
	switch {
	case slot.rt.Quarantined():
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, slot.id)
	case !slot.rt.Serving():
		return nil, fmt.Errorf("%w: %q", ErrRestarting, slot.id)
	}
	if home := slot.rt.Load(); home != nil {
		return home, nil
	}
	return m.shards[m.ShardOf(slot.id)].wake(slot)
}

// slotOf returns the home's slot regardless of its health — status and
// health reads work while the home is restarting or quarantined.
func (m *Manager) slotOf(id HomeID) (*homeSlot, error) {
	slot, ok := m.shards[m.ShardOf(id)].slot(id)
	if !ok {
		if m.writerErr != nil {
			// Nothing was added: the manager does not own its data directory.
			return nil, fmt.Errorf("%w: %q: %w", ErrUnknownHome, id, m.writerErr)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownHome, id)
	}
	return slot, nil
}

// mutate runs one mutating operation against the home's live generation. A
// generation the freezer closed between the lookup and the operation answers
// ErrClosed; reanimate then yields the next one — nothing acknowledged is
// lost across the freeze/wake boundary. Another stale freeze queued on the
// slot's wakeMu may close that generation too, so this loops until one
// accepts the operation or no next generation is to be had (wake failed,
// manager closed, home genuinely closed), when the ErrClosed stands. Every
// pass consumes a freezer that was already queued, so the loop ends when
// they run out.
func (m *Manager) mutate(id HomeID, op func(*rt.HomeRuntime) error) error {
	home, err := m.Runtime(id)
	if err != nil {
		return err
	}
	for {
		err := op(home)
		if !errors.Is(err, ErrClosed) {
			return err
		}
		next, werr := m.reanimate(id, home)
		if werr != nil {
			return err
		}
		home = next
	}
}

// Submit validates the routine against the home's device registry and
// submits it, returning its assigned routine ID. Under ClockVirtual the
// routine has finished by the time Submit returns; under ClockLive it
// executes in real time. Returns ErrOverloaded when the home's mailbox is
// full.
func (m *Manager) Submit(id HomeID, r *routine.Routine) (rid routine.ID, err error) {
	err = m.mutate(id, func(home *rt.HomeRuntime) (err error) {
		rid, err = home.Submit(r)
		return err
	})
	return rid, err
}

// SubmitSpec parses a Fig 10-style JSON routine document and submits it.
// The parsed routine is handed to the controller as it is
// (HomeRuntime.SubmitOwned), not cloned: nobody else holds it. A retry after
// ErrClosed resubmits it safely, because a refused submission leaves it
// untouched.
func (m *Manager) SubmitSpec(id HomeID, spec []byte) (rid routine.ID, err error) {
	r, err := routine.ParseSpec(spec)
	if err != nil {
		return routine.None, err
	}
	err = m.mutate(id, func(home *rt.HomeRuntime) (err error) {
		rid, err = home.SubmitOwned(r)
		return err
	})
	return rid, err
}

// SubmitAfter schedules a routine submission after the given delay on the
// home's clock. Under ClockLive the delay is real time.
func (m *Manager) SubmitAfter(id HomeID, d time.Duration, r *routine.Routine) error {
	return m.mutate(id, func(home *rt.HomeRuntime) error { return home.SubmitAfter(d, r) })
}

// FailDevice injects a fail-stop failure of the device in the home.
func (m *Manager) FailDevice(id HomeID, dev device.ID) error {
	return m.mutate(id, func(home *rt.HomeRuntime) error { return home.FailDevice(dev) })
}

// RestoreDevice injects a restart of a previously failed device.
func (m *Manager) RestoreDevice(id HomeID, dev device.ID) error {
	return m.mutate(id, func(home *rt.HomeRuntime) error { return home.RestoreDevice(dev) })
}

// StoreRoutine saves a routine definition in the home's routine bank (Fig
// 11). On a durable home the definition is journaled, so it survives
// restarts.
func (m *Manager) StoreRoutine(id HomeID, r *routine.Routine) error {
	return m.mutate(id, func(home *rt.HomeRuntime) error { return home.StoreRoutine(r) })
}

// StoredRoutines lists the names in the home's routine bank.
func (m *Manager) StoredRoutines(id HomeID) ([]string, error) {
	home, err := m.Runtime(id)
	if err != nil {
		return nil, err
	}
	return home.Bank().Names(), nil
}

// Trigger dispatches the home's stored routine by name: the routine
// dispatcher of Fig 11, invoked by a user rather than a timer.
func (m *Manager) Trigger(id HomeID, name string) (rid routine.ID, err error) {
	err = m.mutate(id, func(home *rt.HomeRuntime) (err error) {
		r, ok := home.Bank().Get(name)
		if !ok {
			// Prefixed with the home, as the single hub's error always read
			// ("hub: no stored routine named …").
			return fmt.Errorf("%s: no stored routine named %q", id, name)
		}
		rid, err = home.SubmitOwned(r) // Get returned a copy nobody else holds
		return err
	})
	return rid, err
}

// ScheduleAfter dispatches the home's stored routine once, after the delay
// on the home's clock. On a durable home the trigger is journaled: a pending
// one re-arms with its remaining delay after a restart.
func (m *Manager) ScheduleAfter(id HomeID, name string, delay time.Duration) (handle rt.TriggerHandle, err error) {
	err = m.mutate(id, func(home *rt.HomeRuntime) (err error) {
		handle, err = home.ScheduleAfter(name, delay)
		return err
	})
	return handle, err
}

// ScheduleEvery dispatches the home's stored routine at the interval,
// starting one interval from now. A virtual-clock home refuses it.
func (m *Manager) ScheduleEvery(id HomeID, name string, interval time.Duration) (handle rt.TriggerHandle, err error) {
	err = m.mutate(id, func(home *rt.HomeRuntime) (err error) {
		handle, err = home.ScheduleEvery(name, interval)
		return err
	})
	return handle, err
}

// CancelTrigger stops one of the home's scheduled triggers; an unknown or
// already fired handle is not an error.
func (m *Manager) CancelTrigger(id HomeID, handle rt.TriggerHandle) error {
	return m.mutate(id, func(home *rt.HomeRuntime) error { return home.CancelTrigger(handle) })
}

// Triggers lists the home's active scheduled triggers in handle order.
func (m *Manager) Triggers(id HomeID) ([]rt.ScheduledTrigger, error) {
	home, err := m.Runtime(id)
	if err != nil {
		return nil, err
	}
	return home.Triggers(), nil
}

// Results returns the home's per-routine outcomes in submission order.
func (m *Manager) Results(id HomeID) ([]visibility.Result, error) {
	home, err := m.Runtime(id)
	if err != nil {
		return nil, err
	}
	return home.Results(), nil
}

// Result returns one routine's outcome in the home.
func (m *Manager) Result(id HomeID, rid routine.ID) (visibility.Result, bool, error) {
	home, err := m.Runtime(id)
	if err != nil {
		return visibility.Result{}, false, err
	}
	res, ok := home.Result(rid)
	return res, ok, nil
}

// DeviceStates returns the ground-truth state of every device in the home.
func (m *Manager) DeviceStates(id HomeID) (map[device.ID]device.State, error) {
	home, err := m.Runtime(id)
	if err != nil {
		return nil, err
	}
	return home.DeviceStates(), nil
}

// Events returns the home's retained activity events with sequence number
// >= since, plus the cursor to pass on the next poll. Homes log events only
// when Config.EventLog is set; otherwise the result is always empty. A poll
// at (or past) the tip of a hibernated home is answered from its frozen
// record without waking it.
func (m *Manager) Events(id HomeID, since uint64) ([]visibility.Event, uint64, error) {
	home, next, err := m.eventSource(id, since)
	if home == nil {
		return nil, next, err
	}
	ev, next := home.EventsSince(since)
	return ev, next, nil
}

// RangeEvents is Events without materializing the page: fn is called in
// sequence order with each retained event >= since, in place on the home's
// immutable snapshot (fn must not write through the pointer or keep it), and
// the next cursor is returned. An error is reported before fn is first
// called.
func (m *Manager) RangeEvents(id HomeID, since uint64, fn func(seq uint64, e *visibility.Event)) (uint64, error) {
	home, next, err := m.eventSource(id, since)
	if home == nil {
		return next, err
	}
	return home.RangeEventsSince(since, fn), nil
}

// eventSource returns the runtime an events poll reads from — or, with a nil
// runtime and no error, the cursor that answers the poll with an empty page:
// nothing happens in a frozen home, so a poller already at its tip has
// nothing to fetch, and recovering the journal to say so would cost a wake
// per poll interval.
func (m *Manager) eventSource(id HomeID, since uint64) (*rt.HomeRuntime, uint64, error) {
	slot, err := m.slotOf(id)
	if err != nil {
		return nil, 0, err
	}
	if slot.rt.Load() == nil {
		if fr := slot.frozen.Load(); fr != nil && since >= fr.NextSeq {
			return nil, fr.NextSeq, nil
		}
	}
	home, err := m.runtimeOf(slot)
	return home, 0, err
}

// HomeStatus summarizes one home. Health is ok, degraded (serving but the
// journal died — memory-only until restart), restarting (poisoned, being
// rebuilt by the supervisor), quarantined (restart budget exhausted) or
// frozen (hibernated: answered from the resident frozen summary, never
// by waking the home).
type HomeStatus struct {
	ID        HomeID        `json:"id"`
	Shard     int           `json:"shard"`
	Model     string        `json:"model"`
	Health    rt.HomeHealth `json:"health"`
	Restarts  int64         `json:"restarts,omitempty"`
	LastError string        `json:"last_error,omitempty"`
	// LastPoison is the forensics record (panic message + stack) of the
	// home's most recent poisoning, persisted in its data directory and
	// cleared once a supervised restart brings the home back clean.
	LastPoison *rt.PoisonRecord `json:"last_poison,omitempty"`
	Devices    int              `json:"devices"`
	Routines   int              `json:"routines"`
	Pending    int              `json:"pending"`
	Active     int              `json:"active"`
	Now        time.Time        `json:"now"`
	Created    time.Time        `json:"created"`
	// FrozenAt and NextFire are set only for hibernated homes: when the
	// final checkpoint landed, and the earliest scheduled-trigger deadline
	// the manager will wake the home for.
	FrozenAt time.Time `json:"frozen_at,omitempty"`
	NextFire time.Time `json:"next_fire,omitempty"`
}

func (m *Manager) statusOf(slot *homeSlot, shard int) HomeStatus {
	home := slot.rt.Load()
	if home == nil {
		fr := slot.frozen.Load()
		if fr == nil {
			// Caught a wake mid-transition (rt published, frozen not yet
			// cleared when we looked, or vice versa): re-read the runtime.
			home = slot.rt.Load()
		}
		if home == nil {
			st := HomeStatus{ID: slot.id, Shard: shard, Health: rt.HealthFrozen}
			if fr != nil {
				st.Model = fr.Model
				st.Devices = len(slot.devices)
				st.Routines = fr.Routines
				st.Created = fr.Created
				st.FrozenAt = fr.FrozenAt
				st.NextFire = fr.NextFire
			}
			st.LastPoison = slot.rt.LastPoison()
			return st
		}
	}
	c := home.Counts()
	st := HomeStatus{
		ID:         slot.id,
		Shard:      shard,
		Model:      c.Model,
		Health:     slot.rt.Health(),
		Restarts:   slot.rt.Restarts(),
		LastPoison: slot.rt.LastPoison(),
		Devices:    home.Registry().Len(),
		Routines:   c.Routines,
		Pending:    c.Pending,
		Active:     c.Active,
		Now:        c.Now,
		Created:    home.Since(),
	}
	if err := slot.rt.LastError(); err != nil {
		st.LastError = err.Error()
	}
	return st
}

// HomeStatus returns one home's summary. It answers for restarting and
// quarantined homes too — the summary then reflects the last generation's
// quiesced state plus the supervision fields.
func (m *Manager) HomeStatus(id HomeID) (HomeStatus, error) {
	slot, err := m.slotOf(id)
	if err != nil {
		return HomeStatus{}, err
	}
	return m.statusOf(slot, m.ShardOf(id)), nil
}

// Homes lists every home's summary, sorted by ID. Shards are collected in
// parallel — each home's Counts query queues behind that home's mailbox, so
// the listing costs the slowest shard, not the sum of all of them.
func (m *Manager) Homes() []HomeStatus {
	var (
		mu  sync.Mutex
		out []HomeStatus
		wg  sync.WaitGroup
	)
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			homes := sh.snapshot()
			local := make([]HomeStatus, 0, len(homes))
			for _, slot := range homes {
				local = append(local, m.statusOf(slot, sh.index))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status summarizes the whole manager.
type Status struct {
	Shards int `json:"shards"`
	Homes  int `json:"homes"`
	// Frozen counts the hibernated homes (included in Homes). Their
	// lifetime mailbox totals still fold into Accepted/Rejected — read
	// from the resident frozen summaries, never by waking anyone.
	Frozen      int    `json:"frozen,omitempty"`
	Clock       string `json:"clock"`
	Model       string `json:"model"`
	Submitted   int64  `json:"submitted"`
	Committed   int64  `json:"committed"`
	Aborted     int64  `json:"aborted"`
	SimEvents   int64  `json:"sim_events"`
	Accepted    int64  `json:"mailbox_accepted"`
	Rejected    int64  `json:"mailbox_rejected"`
	Depth       int    `json:"mailbox_depth"`
	Poisons     int64  `json:"poisons,omitempty"`
	Restarts    int64  `json:"restarts,omitempty"`
	Quarantined int64  `json:"quarantined,omitempty"`
	// Durability is the resolved journal tier ("sync", "group", "async");
	// empty when the manager is memory-only. DurabilityError reports that
	// the writer fleet failed to open — the manager does not own its data
	// directory, and AddHome and RecoverHomes refuse with this error.
	Durability      string    `json:"durability,omitempty"`
	DurabilityError string    `json:"durability_error,omitempty"`
	Since           time.Time `json:"since"`
}

// Status returns manager-wide totals. The counters are read lock-free and
// monotonic, not a point-in-time snapshot; Depth sums the homes' current
// mailbox occupancy.
func (m *Manager) Status() Status {
	st := Status{
		Shards:      m.cfg.Shards,
		Clock:       m.cfg.Clock.String(),
		Model:       m.cfg.Home.Model.String(),
		Submitted:   m.submitted.Total(),
		Committed:   m.committed.Total(),
		Aborted:     m.aborted.Total(),
		SimEvents:   m.simEvents.Total(),
		Poisons:     m.tel.sup.Poisons.Value(),
		Restarts:    m.tel.sup.Restarts.Value(),
		Quarantined: m.tel.sup.Quarantines.Value(),
		Since:       m.since,
	}
	if m.cfg.DataDir != "" {
		st.Durability = m.durability.String()
		if m.writerErr != nil {
			st.DurabilityError = m.writerErr.Error()
		}
	}
	for _, sh := range m.shards {
		st.Homes += int(sh.homeCount.Load())
		for _, slot := range sh.snapshot() {
			if home := slot.rt.Load(); home != nil {
				mb := home.Mailbox()
				st.Accepted += mb.Accepted
				st.Rejected += mb.Rejected
				st.Depth += mb.Depth
			} else if fr := slot.frozen.Load(); fr != nil {
				st.Frozen++
				st.Accepted += fr.Accepted
				st.Rejected += fr.Rejected
			} else {
				st.Frozen++ // mid-transition; counters settle next read
			}
		}
	}
	return st
}

// Start arms the failure detectors of the device-bound homes; every
// generation built after it (a supervised restart) arms its own.
func (m *Manager) Start() {
	m.detecting.Store(true)
	for _, sh := range m.shards {
		for _, slot := range sh.snapshot() {
			if home := slot.rt.Load(); home != nil {
				home.Start()
			}
		}
	}
}

// Close stops the live-clock pumpers and closes every home runtime — queued
// operations run and every home's in-flight routines finish — before
// returning. Close is idempotent; read-only methods keep working on the
// quiesced state afterwards.
func (m *Manager) Close() {
	// Homes first, writers second: each home's Close waits for its covering
	// sync, so by the time the writers close nothing is parked on them.
	m.shutdown((*rt.HomeRuntime).Close, func(w *journal.GroupWriter) { _ = w.Close() })
}

// Crash kills every home without draining and abandons the writers without
// a final sync: the SIGKILL-equivalent for crash-recovery drills.
func (m *Manager) Crash() {
	m.shutdown((*rt.HomeRuntime).Crash, (*journal.GroupWriter).Abandon)
}

// shutdown is Close and Crash: stop the background goroutines, then every
// home, then every writer. Only the first call does anything.
func (m *Manager) shutdown(stopHome func(*rt.HomeRuntime), stopWriter func(*journal.GroupWriter)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	close(m.stop)
	m.wg.Wait()
	for _, sh := range m.shards {
		sh.closeAll(stopHome)
	}
	for _, w := range m.writers {
		stopWriter(w)
	}
}

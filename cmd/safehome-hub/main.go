// Command safehome-hub runs the SafeHome edge hub (Fig 11): the concurrency
// controller for the chosen visibility model, the routine bank and
// dispatcher, the failure detector, and an HTTP API for users and triggers.
//
// Devices are controlled either through the Kasa TCP driver (point -devices
// at a safehome-devices emulator or at real plugs) or, with -fleet, through
// an in-process simulated fleet — handy for a single-binary demo.
//
// With -homes N the binary instead runs the multi-tenant HomeManager: N
// independent simulated homes partitioned across -shards worker shards, each
// with its own visibility controller and fleet, served through the
// home-scoped API (`/homes/{id}/...`).
//
// Every home — single or multi-tenant — runs behind a bounded typed-op
// mailbox (-mailbox depth, -batch drain size); when a home's mailbox is
// full, mutating requests are answered with 429 Too Many Requests instead of
// queuing without bound.
//
// With -data the hub journals every home into one shared log per shard
// (open fds stay O(shards) in every tier); -durability picks when a commit
// is acknowledged: sync (after its covering fsync, which starts at once —
// the single-home default), group (the same, but commits gather behind a
// short window so a shard's homes ride one fsync — the -homes default), or
// async (ahead of the disk, behind a bounded loss window).
//
// Usage:
//
//	safehome-hub -listen :8123 -model EV -scheduler TL -devices 127.0.0.1:9999 -plugs 10
//	safehome-hub -listen :8123 -fleet -plugs 5
//	safehome-hub -listen :8123 -homes 1000 -shards 8 -plugs 5
//	safehome-hub -listen :8123 -homes 1000 -shards 8 -data /var/lib/safehome -durability group
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"slices"
	"time"

	"safehome/internal/device"
	"safehome/internal/hub"
	"safehome/internal/journal"
	"safehome/internal/kasa"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

func main() {
	var (
		listen         = flag.String("listen", "127.0.0.1:8123", "address to serve the hub HTTP API on")
		modelName      = flag.String("model", "EV", "visibility model: WV, GSV, S-GSV, PSV or EV")
		schedName      = flag.String("scheduler", "TL", "EV scheduling policy: FCFS, JiT or TL")
		devices        = flag.String("devices", "", "address of a Kasa endpoint (safehome-devices or a real plug)")
		useFleet       = flag.Bool("fleet", false, "use an in-process simulated fleet instead of networked devices")
		plugs          = flag.Int("plugs", 10, "number of plug devices per home (plug-0..plug-N-1)")
		probe          = flag.Duration("probe", time.Second, "failure detector probe period")
		homes          = flag.Int("homes", 0, "multi-tenant mode: number of homes to manage (0 = single-home hub)")
		shards         = flag.Int("shards", 4, "multi-tenant mode: number of worker shards")
		mailbox        = flag.Int("mailbox", 0, "per-home operation-mailbox depth (0 = default 128); a full mailbox answers 429")
		batch          = flag.Int("batch", 0, "max operations a home drains per loop wakeup (0 = default 32)")
		eventLog       = flag.Int("eventlog", 0, "multi-tenant mode: per-home event-log cap (0 disables /homes/{id}/events)")
		dataDir        = flag.String("data", "", "data directory for the write-ahead journal; empty runs memory-only. A hub restarted with the same -data recovers results, committed states and event cursors, and aborts routines that were in flight")
		durabilityName = flag.String("durability", "", "journal durability tier with -data: sync (ack after the covering fsync, no commit window; single-home default), group (ack after the covering fsync, commits gather behind a short window; multi-tenant default), or async (ack ahead of the disk, bounded loss window)")
		hibernate      = flag.Duration("hibernate-after", 0, "multi-tenant mode with -data: freeze homes idle this long to a final checkpoint and release their runtime; any API touch reanimates them and scheduled triggers still fire on time (0 disables)")
	)
	flag.Parse()
	// A set flag the chosen mode ignores is refused: manager mode runs
	// simulated per-home fleets, so the single home's device wiring does not
	// apply, and a single home has no shards, event-log cap or hibernation.
	ignored, mode := []string{"shards", "eventlog", "hibernate-after"}, "multi-tenant mode (-homes)"
	if *homes > 0 {
		ignored, mode = []string{"devices", "fleet", "probe"}, "single-home mode"
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(ignored, f.Name) {
			log.Fatalf("safehome-hub: -%s applies to %s only", f.Name, mode)
		}
	})

	model, err := visibility.ParseModel(*modelName)
	if err != nil {
		log.Fatalf("safehome-hub: %v", err)
	}
	sched, err := visibility.ParseScheduler(*schedName)
	if err != nil {
		log.Fatalf("safehome-hub: %v", err)
	}
	var jopts journal.Options
	if *durabilityName != "" {
		jopts.Mode, err = journal.ParseMode(*durabilityName)
		if err != nil {
			log.Fatalf("safehome-hub: %v", err)
		}
	}

	if *homes > 0 {
		if *hibernate > 0 && *dataDir == "" {
			log.Fatal("safehome-hub: -hibernate-after needs -data: a frozen home is its final checkpoint")
		}
		serveManager(*listen, *homes, *shards, *plugs, *mailbox, *batch, *eventLog, *dataDir, jopts, *hibernate, model, sched)
		return
	}

	reg := device.Plugs(*plugs)
	var actuator device.Actuator
	switch {
	case *useFleet:
		actuator = device.NewFleet(reg)
		log.Printf("controlling %d in-process simulated devices", *plugs)
	case *devices != "":
		actuator = kasa.NewSingleEndpointDriver(*devices, reg.IDs())
		log.Printf("controlling %d devices through Kasa endpoint %s", *plugs, *devices)
	default:
		log.Fatal("safehome-hub: either -devices or -fleet is required")
	}

	h, err := hub.New(hub.Config{Model: model, Scheduler: sched, FailureInterval: *probe,
		MailboxDepth: *mailbox, Batch: *batch, DataDir: *dataDir, Journal: jopts}, reg, actuator)
	if err != nil {
		log.Fatalf("safehome-hub: %v", err)
	}
	h.Start()
	defer h.Close()

	if *dataDir != "" {
		st := h.Status()
		log.Printf("durable hub: data dir %s durability=%s (recovered %d routines)", *dataDir, st.Durability, st.Routines)
	}
	fmt.Printf("SafeHome hub: model=%s scheduler=%s devices=%d\n", model, sched, reg.Len())
	fmt.Printf("HTTP API on http://%s/api/status\n", *listen)
	log.Fatal(http.ListenAndServe(*listen, h.Handler()))
}

// serveManager runs the multi-tenant HomeManager: homes home-0..home-(N-1)
// on live clocks, partitioned across worker shards, behind the /homes API.
func serveManager(listen string, homes, shards, plugs, mailbox, batch, eventLog int,
	dataDir string, jopts journal.Options, hibernate time.Duration,
	model visibility.Model, sched visibility.SchedulerKind) {
	m := manager.New(manager.Config{
		Shards:         shards,
		QueueDepth:     mailbox,
		Batch:          batch,
		Clock:          manager.ClockLive,
		EventLog:       eventLog,
		DataDir:        dataDir,
		Journal:        jopts,
		HibernateAfter: hibernate,
		Home:           manager.HomeConfig{Model: model, Scheduler: sched},
	})
	// A durable manager rediscovers every persisted home before creating the
	// startup fleet; homes that already exist on disk are recovered, not
	// recreated.
	if recovered, err := m.RecoverHomes(); err != nil {
		log.Fatalf("safehome-hub: recovering homes: %v", err)
	} else if len(recovered) > 0 {
		log.Printf("recovered %d homes from %s", len(recovered), dataDir)
	}
	for i := 0; i < homes; i++ {
		id := manager.HomeID(fmt.Sprintf("home-%d", i))
		if err := m.AddHome(id, device.Plugs(plugs).All()...); err != nil && !errors.Is(err, manager.ErrDuplicateHome) {
			log.Fatalf("safehome-hub: creating home %s: %v", id, err)
		}
	}
	fmt.Printf("SafeHome multi-tenant hub: model=%s scheduler=%s homes=%d shards=%d plugs/home=%d\n",
		model, sched, homes, shards, plugs)
	fmt.Printf("HTTP API on http://%s/api/status (home-scoped: /homes/home-0/...)\n", listen)
	log.Fatal(http.ListenAndServe(listen, hub.ManagerHandler(m, plugs)))
}

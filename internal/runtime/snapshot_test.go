package runtime

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

func TestSnapshotReadYourWrites(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 64}, 4)
	for i := 0; i < 10; i++ {
		rid, err := rt.Submit(plugRoutine(fmt.Sprintf("ryw-%d", i), device.On, i%4))
		if err != nil {
			t.Fatal(err)
		}
		// The loop publishes before replying: a completed Submit must be
		// visible in the very next snapshot read, with no mailbox round trip.
		res, ok := rt.Result(rid)
		if !ok || res.Status != visibility.StatusCommitted {
			t.Fatalf("submit %d returned but its snapshot read = %+v, %v", i, res, ok)
		}
		if c := rt.Counts(); c.Routines != i+1 {
			t.Fatalf("counts after submit %d = %d routines", i, c.Routines)
		}
	}
	if states := rt.DeviceStates(); states["plug-0"] != device.On {
		t.Fatalf("plug-0 = %q in snapshot, want ON", states["plug-0"])
	}
	if ev := rt.Events(); len(ev) == 0 {
		t.Fatal("snapshot event log is empty")
	}
}

// TestSnapshotReadersAreMonotonicAndConsistent hammers one home with
// concurrent mutators and snapshot readers (run it with -race). Every reader
// checks, on each snapshot it loads, that
//
//   - reads are monotonic: the routine count never decreases between
//     consecutive loads, and a result observed once never disappears;
//   - the snapshot is internally consistent: the counts and the results
//     were cut at the same instant, so Routines == len(Results), Pending
//     matches the unfinished statuses in the same snapshot, and result IDs
//     are dense in submission order;
//   - event cursors are monotonic.
func TestSnapshotReadersAreMonotonicAndConsistent(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 256, MailboxDepth: 1024}, 4)

	const (
		writers     = 4
		readers     = 4
		perWriter   = 150
		totalWrites = writers * perWriter
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := plugRoutine(fmt.Sprintf("w%d-%d", w, i), device.On, i%4)
				for {
					_, err := rt.Submit(r)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	readErr := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRoutines int
			var lastCursor uint64
			seen := make(map[routine.ID]bool)
			for {
				snap := rt.Snapshot()
				c := snap.Counts()
				results := snap.Results()

				if c.Routines < lastRoutines {
					readErr <- fmt.Errorf("routine count went backwards: %d -> %d", lastRoutines, c.Routines)
					return
				}
				lastRoutines = c.Routines
				if len(results) != c.Routines {
					readErr <- fmt.Errorf("snapshot inconsistent: %d results but Routines=%d", len(results), c.Routines)
					return
				}
				pending := 0
				for i, res := range results {
					if int64(res.ID) != int64(i+1) {
						readErr <- fmt.Errorf("result %d has ID %d; submission order broken", i, res.ID)
						return
					}
					if !res.Status.Finished() {
						pending++
					}
					seen[res.ID] = true
				}
				if pending != c.Pending {
					readErr <- fmt.Errorf("snapshot inconsistent: %d unfinished results but Pending=%d", pending, c.Pending)
					return
				}
				for rid := range seen {
					if int64(rid) > int64(len(results)) {
						readErr <- fmt.Errorf("result %d observed earlier has disappeared (len %d)", rid, len(results))
						return
					}
				}
				_, next := snap.EventsSince(lastCursor)
				if next < lastCursor {
					readErr <- fmt.Errorf("event cursor went backwards: %d -> %d", lastCursor, next)
					return
				}
				lastCursor = next
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for rt.Counts().Routines < totalWrites {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}

	if got := rt.Counts().Routines; got != totalWrites {
		t.Fatalf("routines = %d, want %d", got, totalWrites)
	}
	if pending := rt.PendingCount(); pending != 0 {
		t.Fatalf("pending = %d after virtual-clock drain, want 0", pending)
	}
}

// ack is one acknowledged operation handed from the writer that issued it to
// a reader goroutine: what any reader starting now must already observe.
type ack struct {
	rid     routine.ID           // the acknowledged submit; 0 for a fail/restore
	dev     device.ID            // the device the operation touched
	kind    visibility.EventKind // the event the operation emitted
	nth     int                  // events of that kind dev has emitted by now (fail/restore)
	state   device.State         // dev's committed state once the operation was acknowledged
	verdict chan error
}

// checkAck reads the snapshot once — result, counts, event cursor, committed
// state — and reports what the acknowledged operation left unobserved.
func checkAck(rt *HomeRuntime, clock Clock, a ack) error {
	want := max(a.nth, 1)
	if a.rid != 0 {
		res, ok := rt.Result(a.rid)
		if !ok {
			return fmt.Errorf("routine %d acknowledged but absent from the snapshot", a.rid)
		}
		if clock == ClockVirtual && res.Status != visibility.StatusCommitted {
			return fmt.Errorf("routine %d acknowledged committed, snapshot says %s", a.rid, res.Status)
		}
		if c := rt.Counts(); c.Routines < int(a.rid) {
			return fmt.Errorf("routine %d acknowledged, snapshot counts %d routines", a.rid, c.Routines)
		}
	}
	seen, last := 0, uint64(0)
	next := rt.RangeEventsSince(0, func(seq uint64, e *visibility.Event) {
		if e.Kind == a.kind && e.Routine == a.rid && (a.rid != 0 || e.Device == a.dev) {
			seen, last = seen+1, seq
		}
	})
	if seen < want || next <= last {
		return fmt.Errorf("%s of %s/%d: snapshot has %d such events (want %d), cursor %d past seq %d", a.kind, a.dev, a.rid, seen, want, next, last)
	}
	if got := rt.CommittedStates()[a.dev]; got != a.state {
		return fmt.Errorf("%s committed state = %q, want %q", a.dev, got, a.state)
	}
	return nil
}

// TestSnapshotReadsSeeOtherCallersAcks pins the property that makes the
// snapshot the only read path a home needs: the loop publishes before it
// delivers any reply, so an operation acknowledged to one caller is already
// visible to every reader that starts after the acknowledgement — not only
// to the caller. Writers hand each acknowledged submit or fail/restore to a
// reader goroutine from a shared pool (never to themselves), and that reader
// must see the result, the counts, an event cursor past the operation's
// event and the committed state on its first read. The second case reads
// while the loop is suspended: every answer still comes back, because no
// read waits on the loop. Run it with -race.
func TestSnapshotReadsSeeOtherCallersAcks(t *testing.T) {
	for name, clock := range map[string]Clock{"virtual": ClockVirtual, "paced": ClockPaced} {
		t.Run(name, func(t *testing.T) {
			const writers, readers, perWriter = 4, 3, 60
			// Writer w owns plug-w, so its committed state is the writer's to
			// predict; the paced home is never pumped, so nothing executes and
			// every committed state stays at its initial Off.
			rt := newVirtual(t, Config{Clock: clock, EventLog: 4096}, writers+1)

			acks := make(chan ack)
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for a := range acks {
						a.verdict <- checkAck(rt, clock, a)
					}
				}()
			}
			errs := make(chan error, writers)
			var wwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					dev := device.ID(fmt.Sprintf("plug-%d", w))
					state, fails, restores := device.Off, 0, 0
					verdict := make(chan error, 1)
					for i := 0; i < perWriter; i++ {
						a := ack{dev: dev, verdict: verdict}
						var err error
						switch i % 3 {
						case 0:
							target := device.On
							if i%6 == 3 {
								target = device.Off
							}
							a.kind = visibility.EvSubmitted
							a.rid, err = rt.Submit(plugRoutine(fmt.Sprintf("w%d-%d", w, i), target, w))
							if clock == ClockVirtual {
								state = target
							}
						case 1:
							fails++
							a.kind, a.nth = visibility.EvFailureDetected, fails
							err = rt.FailDevice(dev)
						case 2:
							restores++
							a.kind, a.nth = visibility.EvRestartDetected, restores
							err = rt.RestoreDevice(dev)
						}
						if err != nil {
							errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
							return
						}
						a.state = state
						acks <- a
						if err := <-verdict; err != nil {
							errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
							return
						}
					}
				}(w)
			}
			wwg.Wait()
			close(acks)
			rwg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Suspended: an acknowledged submit is readable while the loop
			// is parked and can answer nothing.
			dev := device.ID(fmt.Sprintf("plug-%d", writers))
			rid, err := rt.Submit(plugRoutine("parked", device.On, writers))
			if err != nil {
				t.Fatal(err)
			}
			resume, err := rt.Suspend()
			if err != nil {
				t.Fatal(err)
			}
			defer resume()
			a := ack{rid: rid, dev: dev, kind: visibility.EvSubmitted, state: device.Off}
			if clock == ClockVirtual {
				a.state = device.On
			}
			answered := make(chan error, 1)
			go func() { answered <- checkAck(rt, clock, a) }()
			select {
			case err := <-answered:
				if err != nil {
					t.Errorf("read during suspension: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a read waited on the suspended loop")
			}
		})
	}
}

// TestEventsSinceCursorFetchesOnlyTail covers the poller contract: a second
// call with the returned cursor sees exactly the events appended in between.
func TestEventsSinceCursorFetchesOnlyTail(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 256}, 2)
	if _, err := rt.Submit(plugRoutine("first", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	all, cursor := rt.EventsSince(0)
	if len(all) == 0 {
		t.Fatal("no events after first submit")
	}
	if tail, next := rt.EventsSince(cursor); len(tail) != 0 || next != cursor {
		t.Fatalf("tail after cursor = %d events (next %d, cursor %d), want none", len(tail), next, cursor)
	}
	if _, err := rt.Submit(plugRoutine("second", device.On, 1)); err != nil {
		t.Fatal(err)
	}
	tail, next := rt.EventsSince(cursor)
	if len(tail) == 0 || next <= cursor {
		t.Fatalf("tail after second submit = %d events, next %d", len(tail), next)
	}
	for _, e := range tail {
		if e.Detail == "first" {
			t.Fatalf("tail re-delivered an event from before the cursor: %+v", e)
		}
	}
	// A poller that fell behind eviction just gets the oldest retained tail.
	if ev, _ := rt.EventsSince(1); len(ev) == 0 {
		t.Fatal("EventsSince(1) returned nothing")
	}
}

// TestVisitorReadsMatchSliceReads: RangeEventsSince and ResultRef are the
// copy-free twins of EventsSince and Result — same events, same sequence
// numbers, same cursor, same records — across an eviction, and for cursors
// before, inside and past the retained window (a cursor near 2^64 once
// indexed the chunk spine with a negative offset).
func TestVisitorReadsMatchSliceReads(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 16}, 2)
	for i := 0; i < 12; i++ { // ~4 events each: the 16-event log evicts
		if _, err := rt.Submit(plugRoutine("r", device.On, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	first, tip := rt.Snapshot().EventSeqRange()
	if first <= 1 {
		t.Fatalf("log never evicted (first retained seq %d)", first)
	}
	for _, since := range []uint64{0, 1, first - 1, first, first + 3, tip - 1, tip, tip + 1, math.MaxUint64} {
		want, wantNext := rt.EventsSince(since)
		var got []visibility.Event
		seq := tip - uint64(len(want))
		next := rt.RangeEventsSince(since, func(s uint64, e *visibility.Event) {
			if s != seq {
				t.Errorf("since=%d: visited seq %d, want %d", since, s, seq)
			}
			seq++
			got = append(got, *e)
		})
		if next != wantNext || !reflect.DeepEqual(got, want) {
			t.Errorf("since=%d: visited %d events (next %d), slice read has %d (next %d)",
				since, len(got), next, len(want), wantNext)
		}
	}
	for _, id := range []routine.ID{-1, 0, 1, 7, 12, 13, math.MaxInt64} {
		want, wantOK := rt.Result(id)
		got, ok := rt.ResultRef(id)
		if ok != wantOK || (ok && !reflect.DeepEqual(*got, want)) {
			t.Errorf("ResultRef(%d) = %+v, %v; Result says %+v, %v", id, got, ok, want, wantOK)
		}
	}
}

// TestEventLogRetainsMostOfCapAcrossEviction pins the eviction policy:
// chunks are a quarter of the cap, so even right after dropping the oldest
// chunk the log retains at least ~3/4 of the configured window (a cap of
// exactly one preferred chunk size must not collapse to a single event).
func TestEventLogRetainsMostOfCapAcrossEviction(t *testing.T) {
	for _, capEvents := range []int{8, 128, 200, 1024} {
		l := newEventLog(capEvents)
		for i := 0; i < 3*capEvents+1; i++ {
			l.append(visibility.Event{Routine: 1})
		}
		if l.n > capEvents {
			t.Errorf("cap %d: log holds %d events, over cap", capEvents, l.n)
		}
		if min := capEvents - capEvents/4; l.n < min {
			t.Errorf("cap %d: log holds %d events right after eviction, want >= %d", capEvents, l.n, min)
		}
	}
}

// TestSuspendReleasesEarlierBatchReplies pins the batching edge the loop
// must not get wrong: when a submit and a suspend drain in the same batch,
// the submitter's reply (and the snapshot carrying its effect) must be
// delivered before the loop parks, not held until resume.
func TestSuspendReleasesEarlierBatchReplies(t *testing.T) {
	rt := newVirtual(t, Config{Batch: 8}, 2)

	// Park the loop so the next submit and suspend queue into one batch.
	resume1, err := rt.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	type submitResult struct {
		rid routine.ID
		err error
	}
	submitted := make(chan submitResult, 1)
	go func() {
		rid, err := rt.Submit(plugRoutine("wedged", device.On, 0))
		submitted <- submitResult{rid, err}
	}()
	waitDepth := time.Now().Add(2 * time.Second)
	for rt.Mailbox().Depth < 1 {
		if time.Now().After(waitDepth) {
			t.Fatal("submit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resumed2 := make(chan func(), 1)
	go func() {
		resume2, err := rt.Suspend()
		if err != nil {
			t.Error(err)
			resumed2 <- func() {}
			return
		}
		resumed2 <- resume2
	}()
	// Release the first suspension: the loop drains [submit, suspend] as one
	// batch and parks again — with the submit answered first.
	resume1()
	resume2 := <-resumed2
	defer resume2()

	select {
	case res := <-submitted:
		if res.err != nil {
			t.Fatalf("submit in suspend batch: %v", res.err)
		}
		if r, ok := rt.Result(res.rid); !ok || r.Status != visibility.StatusCommitted {
			t.Fatalf("snapshot during suspension = %+v, %v; want the pre-park publish to cover the submit", r, ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit reply held hostage by a suspend later in the same batch")
	}
}

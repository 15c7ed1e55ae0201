package hub

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// wedge parks a runtime's loop and saturates its mailbox with submissions,
// so the next mutating request is deterministically load-shed. It returns
// the resume function and a WaitGroup joining the blocked submitters.
func wedge(t *testing.T, runtime *rt.HomeRuntime, depth int,
	submit func() error) (resume func(), wg *sync.WaitGroup) {
	t.Helper()
	resume, err := runtime.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	wg = &sync.WaitGroup{}
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := submit(); err != nil {
				t.Errorf("admitted submit failed: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.Mailbox().Depth < depth {
		if time.Now().After(deadline) {
			resume()
			t.Fatalf("mailbox depth = %d, never reached %d", runtime.Mailbox().Depth, depth)
		}
		time.Sleep(time.Millisecond)
	}
	return resume, wg
}

func TestHubHTTPSurfaces429UnderOverload(t *testing.T) {
	const depth = 4
	reg := testRegistry()
	fleet := device.NewFleet(reg)
	m, err := New(Config{Model: visibility.EV, DefaultShort: time.Millisecond,
		MailboxDepth: depth}, reg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(HomeHandler(m, Home))
	defer srv.Close()

	spec, err := routine.MarshalSpec(coolingRoutine())
	if err != nil {
		t.Fatal(err)
	}
	resume, wg := wedge(t, gen(t, m), depth, func() error {
		_, err := m.Submit(Home, coolingRoutine())
		return err
	})

	// A full mailbox sheds the submission with 429 and counts the rejection.
	resp, err := http.Post(srv.URL+"/api/routines", "application/json", bytes.NewReader(spec))
	if err != nil {
		resume()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST /api/routines under overload = %d, want 429", resp.StatusCode)
	}
	if mb := gen(t, m).Mailbox(); mb.Rejected < 1 {
		t.Errorf("rejected counter = %d, want >= 1", mb.Rejected)
	}
	if _, err := m.Submit(Home, coolingRoutine()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Submit under overload = %v, want ErrOverloaded", err)
	}

	// Drained, the same request is accepted again.
	resume()
	wg.Wait()
	resp, err = http.Post(srv.URL+"/api/routines", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST /api/routines after drain = %d, want 202", resp.StatusCode)
	}
	waitIdle(t, m)
}

func TestManagerHTTPSurfaces429UnderOverload(t *testing.T) {
	const depth = 4
	m := manager.New(manager.Config{Shards: 2, QueueDepth: depth, Home: manager.HomeConfig{Model: visibility.EV}})
	srv := httptest.NewServer(ManagerHandler(m, 2))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	if err := m.AddHome("apt-1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	runtime, err := m.Runtime("apt-1")
	if err != nil {
		t.Fatal(err)
	}

	spec := []byte(`{"routine_name":"lights","commands":[{"device":"plug-0","action":"ON"}]}`)
	resume, wg := wedge(t, runtime, depth, func() error {
		_, err := m.SubmitSpec("apt-1", spec)
		return err
	})

	resp, err := http.Post(srv.URL+"/homes/apt-1/routines", "application/json", bytes.NewReader(spec))
	if err != nil {
		resume()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST routine under overload = %d, want 429", resp.StatusCode)
	}
	if _, err := m.SubmitSpec("apt-1", spec); !errors.Is(err, manager.ErrOverloaded) {
		t.Errorf("SubmitSpec under overload = %v, want ErrOverloaded", err)
	}
	if st := m.Status(); st.Rejected < 1 {
		t.Errorf("manager rejected counter = %d, want >= 1", st.Rejected)
	}

	// A different home on the same manager is unaffected by the overload.
	if err := m.AddHome("apt-2", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitSpec("apt-2", spec); err != nil {
		t.Errorf("submit to a healthy home during another home's overload: %v", err)
	}

	// Drained, the overloaded home accepts again and its work completed.
	resume()
	wg.Wait()
	resp, err = http.Post(srv.URL+"/homes/apt-1/routines", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST routine after drain = %d, want 202", resp.StatusCode)
	}
	results, err := m.Results("apt-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != depth+1 {
		t.Errorf("home has %d results after drain, want %d", len(results), depth+1)
	}
}

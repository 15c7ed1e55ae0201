package manager

import (
	"sort"
	"testing"
	"time"

	"safehome/internal/device"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// homeImage is what a manager serves for one home across a restart: how
// RecoverHomes registered it (cold or live) with the status a cold home
// answers without waking, then — after the wake — its results, committed
// states, event window with cursor and armed triggers. Times are UTC so the
// image does not depend on the local zone. The marker-era fixture's
// expected.json is a list of these.
type homeImage struct {
	ID       HomeID                     `json:"id"`
	Cold     bool                       `json:"cold"`
	Devices  int                        `json:"devices"`
	Routines int                        `json:"routines"`
	FrozenAt time.Time                  `json:"frozen_at"`
	NextFire time.Time                  `json:"next_fire"`
	Results  []resultImage              `json:"results"`
	States   map[device.ID]device.State `json:"states"`
	Events   []eventImage               `json:"events"`
	Next     uint64                     `json:"next"`
	Triggers []rt.ScheduledTrigger      `json:"triggers"`
}

type resultImage struct {
	ID        int64     `json:"id"`
	Name      string    `json:"name"`
	Status    string    `json:"status"`
	Executed  int       `json:"executed"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
}

type eventImage struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    int       `json:"kind"`
	Routine int64     `json:"routine"`
	Device  string    `json:"device"`
	State   string    `json:"state"`
}

// homeImages reads the image of every home m holds, sorted by ID. The cold
// status is read first; reading the rest wakes the home. A never-run home's
// summary is stamped when it is registered, so its FrozenAt is left out.
func homeImages(t *testing.T, m *Manager) []homeImage {
	t.Helper()
	var out []homeImage
	for _, st := range m.Homes() {
		img := homeImage{ID: st.ID, Cold: st.Health == rt.HealthFrozen, Devices: st.Devices, Routines: st.Routines,
			NextFire: st.NextFire.UTC(), States: map[device.ID]device.State{}}
		if st.Routines > 0 {
			img.FrozenAt = st.FrozenAt.UTC()
		}
		results, err := m.Results(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			img.Results = append(img.Results, resultImage{ID: int64(res.ID), Name: res.Routine.Name, Status: res.Status.String(),
				Executed: res.Executed, Submitted: res.Submitted.UTC(), Finished: res.Finished.UTC()})
		}
		states, err := m.DeviceStates(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for d, s := range states {
			img.States[d] = s
		}
		img.Next, err = m.RangeEvents(st.ID, 0, func(seq uint64, e *visibility.Event) {
			img.Events = append(img.Events, eventImage{Seq: seq, Time: e.Time.UTC(), Kind: int(e.Kind),
				Routine: int64(e.Routine), Device: string(e.Device), State: string(e.State)})
		})
		if err != nil {
			t.Fatal(err)
		}
		home, err := m.Runtime(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range home.Triggers() {
			tr.NextFire = tr.NextFire.UTC()
			img.Triggers = append(img.Triggers, tr)
		}
		sort.Slice(img.Triggers, func(i, j int) bool { return img.Triggers[i].Handle < img.Triggers[j].Handle })
		out = append(out, img)
	}
	return out
}

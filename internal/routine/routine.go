// Package routine defines SafeHome routines: named sequences of device
// commands, together with the per-command attributes the paper introduces
// (must vs best-effort, long-running duration, optional condition reads), a
// JSON wire representation compatible with the style of Fig 10, and the
// routine bank users store routines in.
package routine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"safehome/internal/device"
)

// ID identifies a submitted routine instance. IDs are assigned by the
// controller at submission time, monotonically increasing, so they double as
// the submission order.
type ID int64

// None is the zero ID, never assigned to a real routine.
const None ID = 0

// Condition is an optional guard on a command: the command only executes if
// the given device is currently in the given state. Conditions are the only
// way a routine reads a device, which matters for the dirty-read restriction
// on post-leases (§4.1).
type Condition struct {
	Device device.ID    `json:"device"`
	Equals device.State `json:"equals"`
}

// Command is one step of a routine: drive Device to Target and hold the
// device exclusively for Duration (zero means a short command whose duration
// is supplied by the controller's default estimate).
type Command struct {
	Device device.ID    `json:"device"`
	Target device.State `json:"target"`
	// Duration is how long the device must be exclusively controlled, e.g.
	// 4 minutes for "make coffee" or 15 minutes for "run sprinklers". Zero
	// means a short command.
	Duration time.Duration `json:"duration,omitempty"`
	// BestEffort marks the command as optional: its failure is reported but
	// does not abort the routine. The default (false) is a "must" command.
	BestEffort bool `json:"best_effort,omitempty"`
	// Condition optionally guards the command (see Condition).
	Condition *Condition `json:"condition,omitempty"`
}

// Must reports whether the command is required for the routine to commit.
func (c Command) Must() bool { return !c.BestEffort }

// Long reports whether the command is long-running relative to the given
// threshold.
func (c Command) Long(threshold time.Duration) bool { return c.Duration >= threshold }

// String renders the command compactly, e.g. "coffee:ON(4m0s)".
func (c Command) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", c.Device, c.Target)
	if c.Duration > 0 {
		fmt.Fprintf(&b, "(%s)", c.Duration)
	}
	if c.BestEffort {
		b.WriteString("[best-effort]")
	}
	return b.String()
}

// Routine is a user- or trigger-initiated sequence of commands. Routines are
// treated as immutable once submitted; all execution state lives in the
// controller.
type Routine struct {
	ID       ID        `json:"id,omitempty"`
	Name     string    `json:"name"`
	Commands []Command `json:"commands"`
	// Submitted is the submission timestamp, stamped by the controller.
	Submitted time.Time `json:"submitted,omitempty"`
	// User optionally records which member of the household initiated it.
	User string `json:"user,omitempty"`

	// devices caches Devices() for cloned instances. Routines are immutable
	// once submitted, and the controllers call Devices() on every scheduling
	// decision, so the submission-time Clone precomputes the set once.
	devices []device.ID
}

// New constructs a routine from commands.
func New(name string, cmds ...Command) *Routine {
	return &Routine{Name: name, Commands: cmds}
}

// Validate checks the routine is well formed against a device registry
// (every command addresses a registered device, has a target, etc.). A nil
// registry skips device existence checks.
func (r *Routine) Validate(reg *device.Registry) error {
	if r == nil {
		return errors.New("routine: nil routine")
	}
	if strings.TrimSpace(r.Name) == "" {
		return errors.New("routine: empty name")
	}
	if len(r.Commands) == 0 {
		return fmt.Errorf("routine %q: no commands", r.Name)
	}
	for i, c := range r.Commands {
		if c.Device == "" {
			return fmt.Errorf("routine %q command %d: empty device", r.Name, i)
		}
		if c.Target == device.StateUnknown {
			return fmt.Errorf("routine %q command %d: empty target state", r.Name, i)
		}
		if c.Duration < 0 {
			return fmt.Errorf("routine %q command %d: negative duration", r.Name, i)
		}
		if reg != nil {
			if _, ok := reg.Get(c.Device); !ok {
				return fmt.Errorf("routine %q command %d: unknown device %q", r.Name, i, c.Device)
			}
			if c.Condition != nil {
				if _, ok := reg.Get(c.Condition.Device); !ok {
					return fmt.Errorf("routine %q command %d: unknown condition device %q", r.Name, i, c.Condition.Device)
				}
			}
		}
	}
	return nil
}

// Devices returns the set of devices the routine touches (writes), in
// first-touch order. For cloned (submitted) routines the set is precomputed;
// callers must treat the result as read-only.
func (r *Routine) Devices() []device.ID {
	if r.devices != nil {
		return r.devices
	}
	return r.computeDevices()
}

func (r *Routine) computeDevices() []device.ID {
	out := make([]device.ID, 0, len(r.Commands))
	for _, c := range r.Commands {
		seen := false
		for _, d := range out {
			if d == c.Device {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, c.Device)
		}
	}
	return out
}

// ReadDevices returns the set of devices the routine reads via conditions,
// in first-read order.
func (r *Routine) ReadDevices() []device.ID {
	seen := make(map[device.ID]bool)
	var out []device.ID
	for _, c := range r.Commands {
		if c.Condition != nil && !seen[c.Condition.Device] {
			seen[c.Condition.Device] = true
			out = append(out, c.Condition.Device)
		}
	}
	return out
}

// Reads reports whether the routine reads the given device through a
// condition (ReadDevices membership, without building the set).
func (r *Routine) Reads(id device.ID) bool {
	for i := range r.Commands {
		if c := r.Commands[i].Condition; c != nil && c.Device == id {
			return true
		}
	}
	return false
}

// Touches reports whether the routine writes the given device.
func (r *Routine) Touches(id device.ID) bool {
	for _, c := range r.Commands {
		if c.Device == id {
			return true
		}
	}
	return false
}

// FirstIndexOn returns the index of the routine's first command on the
// device, or -1.
func (r *Routine) FirstIndexOn(id device.ID) int {
	for i, c := range r.Commands {
		if c.Device == id {
			return i
		}
	}
	return -1
}

// LastIndexOn returns the index of the routine's last command on the device,
// or -1.
func (r *Routine) LastIndexOn(id device.ID) int {
	last := -1
	for i, c := range r.Commands {
		if c.Device == id {
			last = i
		}
	}
	return last
}

// LastWriteTo returns the final state the routine drives the device to, and
// whether the routine writes the device at all. This is what determines the
// device's end state if the routine is the last one serialized on it.
func (r *Routine) LastWriteTo(id device.ID) (device.State, bool) {
	idx := r.LastIndexOn(id)
	if idx < 0 {
		return device.StateUnknown, false
	}
	return r.Commands[idx].Target, true
}

// IdealDuration is the minimum time to run the routine with no lock waits:
// the sum of command durations, substituting defaultShort for zero-duration
// commands. It is the denominator of the stretch-factor metric (Fig 15c).
func (r *Routine) IdealDuration(defaultShort time.Duration) time.Duration {
	var total time.Duration
	for _, c := range r.Commands {
		d := c.Duration
		if d <= 0 {
			d = defaultShort
		}
		total += d
	}
	return total
}

// HoldEstimate returns the estimated time the routine exclusively holds the
// given device: the sum of durations of its commands on that device
// (defaultShort for short commands). Used for lease revocation timeouts.
func (r *Routine) HoldEstimate(id device.ID, defaultShort time.Duration) time.Duration {
	var total time.Duration
	for _, c := range r.Commands {
		if c.Device != id {
			continue
		}
		d := c.Duration
		if d <= 0 {
			d = defaultShort
		}
		total += d
	}
	return total
}

// SpanEstimate returns the estimated time between the routine's first and
// last actions on the device: the sum of effective durations of all commands
// from the first to the last command on that device (inclusive), substituting
// defaultShort for zero-duration commands. It is the basis of the lease
// revocation timeout (§4.1): a routine leased a lock is expected to be done
// with the device within this span (times a leniency factor).
func (r *Routine) SpanEstimate(id device.ID, defaultShort time.Duration) time.Duration {
	first, last := r.FirstIndexOn(id), r.LastIndexOn(id)
	if first < 0 {
		return 0
	}
	var total time.Duration
	for i := first; i <= last; i++ {
		d := r.Commands[i].Duration
		if d <= 0 {
			d = defaultShort
		}
		total += d
	}
	return total
}

// IsLong reports whether the routine contains at least one command with
// duration >= threshold (the paper's definition of a long routine).
func (r *Routine) IsLong(threshold time.Duration) bool {
	for _, c := range r.Commands {
		if c.Long(threshold) {
			return true
		}
	}
	return false
}

// MustCount returns the number of must commands.
func (r *Routine) MustCount() int {
	n := 0
	for _, c := range r.Commands {
		if c.Must() {
			n++
		}
	}
	return n
}

// Clone deep-copies the routine (commands and conditions), so a stored
// definition can be submitted multiple times without aliasing.
func (r *Routine) Clone() *Routine {
	cp := *r
	cp.Commands = make([]Command, len(r.Commands))
	copy(cp.Commands, r.Commands)
	for i, c := range r.Commands {
		if c.Condition != nil {
			cond := *c.Condition
			cp.Commands[i].Condition = &cond
		}
	}
	cp.devices = cp.computeDevices()
	return &cp
}

// String renders the routine like the paper's examples, e.g.
// "cooling{window:CLOSE; ac:ON}".
func (r *Routine) String() string {
	parts := make([]string, len(r.Commands))
	for i, c := range r.Commands {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%s{%s}", r.Name, strings.Join(parts, "; "))
}

// conflictsOn returns the devices two routines both write.
func conflictsOn(a, b *Routine) []device.ID {
	set := make(map[device.ID]bool)
	for _, d := range a.Devices() {
		set[d] = true
	}
	var out []device.ID
	for _, d := range b.Devices() {
		if set[d] {
			out = append(out, d)
		}
	}
	return out
}

// Conflicts reports whether the two routines touch at least one common
// device (the PSV notion of conflicting routines).
func Conflicts(a, b *Routine) bool { return len(conflictsOn(a, b)) > 0 }

// ConflictDevices returns the devices both routines write, sorted.
func ConflictDevices(a, b *Routine) []device.ID {
	ds := conflictsOn(a, b)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// --- Routine bank ---------------------------------------------------------

// Bank stores named routine definitions, as in the implementation
// architecture of Fig 11 ("Routine Bank"). Definitions are cloned on
// retrieval so stored routines are never mutated by submission.
type Bank struct {
	mu    sync.RWMutex
	byKey map[string]*Routine
	order []string
}

// NewBank returns an empty routine bank.
func NewBank() *Bank {
	return &Bank{byKey: make(map[string]*Routine)}
}

// Store saves (or replaces) a routine definition under its name.
func (b *Bank) Store(r *Routine) error {
	if err := r.Validate(nil); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	key := strings.ToLower(r.Name)
	if _, exists := b.byKey[key]; !exists {
		b.order = append(b.order, key)
	}
	b.byKey[key] = r.Clone()
	return nil
}

// Get returns a copy of the named routine definition.
func (b *Bank) Get(name string) (*Routine, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.byKey[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// Names lists stored routine names in insertion order.
func (b *Bank) Names() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.order))
	for _, key := range b.order {
		out = append(out, b.byKey[key].Name)
	}
	return out
}

// Len returns the number of stored definitions.
func (b *Bank) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.byKey)
}

// Delete removes a routine definition; it is not an error if absent.
func (b *Bank) Delete(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := b.byKey[key]; !ok {
		return
	}
	delete(b.byKey, key)
	for i, k := range b.order {
		if k == key {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

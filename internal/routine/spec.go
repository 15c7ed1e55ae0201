package routine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"safehome/internal/device"
)

// --- JSON wire format (Fig 10-style) -------------------------------------

// specJSON is the on-the-wire representation of a routine definition, in the
// spirit of the paper's Fig 10(a): a name plus a command list where each
// command names a device, an action, an optional duration in milliseconds,
// and a priority of "must" (default) or "best-effort".
type specJSON struct {
	RoutineName string        `json:"routine_name"`
	User        string        `json:"user,omitempty"`
	Commands    []commandJSON `json:"commands"`
}

type commandJSON struct {
	Device     string     `json:"device"`
	Action     string     `json:"action"`
	DurationMS int64      `json:"duration_ms,omitempty"`
	Priority   string     `json:"priority,omitempty"`
	Condition  *Condition `json:"condition,omitempty"`
}

// MarshalSpec encodes the routine into the Fig 10-style JSON document.
func MarshalSpec(r *Routine) ([]byte, error) {
	if r == nil {
		return nil, errors.New("routine: nil routine")
	}
	spec := specJSON{RoutineName: r.Name, User: r.User}
	for _, c := range r.Commands {
		cj := commandJSON{
			Device:     string(c.Device),
			Action:     string(c.Target),
			DurationMS: c.Duration.Milliseconds(),
			Condition:  c.Condition,
		}
		if c.BestEffort {
			cj.Priority = "best-effort"
		} else {
			cj.Priority = "must"
		}
		spec.Commands = append(spec.Commands, cj)
	}
	return json.MarshalIndent(spec, "", "  ")
}

// maxDurationMS is the largest duration_ms a spec command may carry: one
// millisecond more and the command's time.Duration overflows.
const maxDurationMS = math.MaxInt64 / int64(time.Millisecond)

// ParseSpec decodes a Fig 10-style JSON document into a Routine.
//
// It accepts exactly the documents encoding/json would decode into specJSON
// (case-folded keys, escapes, null members, repeated keys, unknown members
// skipped) and builds the same routine, in one pass over data and without
// reflection. Every string is copied out, so the caller may reuse data as
// soon as ParseSpec returns.
func ParseSpec(data []byte) (*Routine, error) {
	d := decoders.Get().(*specDecoder)
	d.data, d.off, d.text, d.name, d.user, d.cmds, d.n = data, 0, d.text[:0], span{}, span{}, d.cmds[:0], 0
	r, err := d.parse()
	d.data = nil
	if cap(d.text) <= maxPooledText && cap(d.cmds) <= maxPooledCommands {
		decoders.Put(d)
	}
	return r, err
}

// decoders recycles ParseSpec's scratch space, so a parse allocates only
// the routine it returns.
var decoders = sync.Pool{New: func() any { return new(specDecoder) }}

// A decoder that grew past these (a giant document) is dropped, not pooled.
const (
	maxPooledText     = 64 << 10
	maxPooledCommands = 1024
)

// specDecoder is ParseSpec's state. Decoded strings accumulate in text and
// fields refer to them by span; routine() copies the spans out in one
// allocation once the document is known to be good.
type specDecoder struct {
	data []byte
	off  int
	text []byte

	name, user span
	// cmds holds every command element decoded since "commands" last
	// became null or empty; n of them are the routine's. The rest are what
	// encoding/json leaves between a slice's length and its capacity, and a
	// later, longer "commands" array decodes into them rather than into
	// zero values.
	cmds []specCommand
	n    int
}

// span is a decoded string: a slice of specDecoder.text, or a device state
// constant the text equalled (kept without copying).
type span struct {
	state    device.State
	off, end int
}

func (s span) empty() bool { return s.state == "" && s.off == s.end }

type specCommand struct {
	device, action span
	durationMS     int64
	bestEffort     bool
	// badPriority is the text of an unrecognised priority (never empty:
	// "" means must), kept for the error routine() reports.
	badPriority  span
	hasCondition bool
	condDevice   span
	condEquals   span
}

// The members of the three object kinds, in encoding/json's spelling.
var (
	specFields      = []string{"routine_name", "user", "commands"}
	commandFields   = []string{"device", "action", "duration_ms", "priority", "condition"}
	conditionFields = []string{"device", "equals"}
)

// states are the action/equals values a routine reuses rather than copies.
var states = []device.State{device.On, device.Off, device.Open, device.Closed, device.Locked, device.Unlocked}

// plain marks the bytes a string literal holds as they are: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

func (d *specDecoder) syntaxError(what string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of input (%s)", what)
	}
	return fmt.Errorf("invalid character %q at offset %d (%s)", d.data[d.off], d.off, what)
}

func (d *specDecoder) typeError(field, want string) error {
	return fmt.Errorf("%s at offset %d: want %s", field, d.off, want)
}

func (d *specDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *specDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *specDecoder) parse() (*Routine, error) {
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("routine: parsing spec: %w", err)
	}
	return d.routine()
}

func (d *specDecoder) document() error {
	d.ws()
	var err error
	switch d.peek() {
	case 'n': // decodes to the zero spec, which has no name
		err = d.literal("null")
	case '{':
		err = d.spec()
	default:
		err = d.typeError("document", "an object")
	}
	if err != nil {
		return err
	}
	d.ws()
	if d.off != len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

func (d *specDecoder) spec() error {
	d.off++ // '{'
	for first := true; ; first = false {
		f, more, err := d.member(first, specFields)
		if err != nil || !more {
			return err
		}
		switch f {
		case 0:
			err = d.str("routine_name", &d.name, false)
		case 1:
			err = d.str("user", &d.user, false)
		case 2:
			err = d.commands()
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

// commands decodes the "commands" array the way encoding/json fills a
// slice: null or [] drop every element, and each element of a non-empty
// array decodes into whatever the slice held at that index before.
func (d *specDecoder) commands() error {
	switch d.peek() {
	case 'n':
		d.cmds, d.n = d.cmds[:0], 0
		return d.literal("null")
	case '[':
		d.off++
	default:
		return d.typeError("commands", "an array")
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i == len(d.cmds) {
			d.cmds = append(d.cmds, specCommand{})
		}
		if err := d.command(&d.cmds[i]); err != nil {
			return err
		}
		i++
	}
	if d.n = i; i == 0 {
		d.cmds = d.cmds[:0]
	}
	return nil
}

func (d *specDecoder) command(c *specCommand) error {
	switch d.peek() {
	case 'n': // null leaves a struct as it was
		return d.literal("null")
	case '{':
		d.off++
	default:
		return d.typeError("commands element", "an object")
	}
	for first := true; ; first = false {
		f, more, err := d.member(first, commandFields)
		if err != nil || !more {
			return err
		}
		switch f {
		case 0:
			err = d.str("device", &c.device, false)
		case 1:
			err = d.str("action", &c.action, true)
		case 2:
			err = d.durationMS(&c.durationMS)
		case 3:
			err = d.priority(c)
		case 4:
			err = d.condition(c)
		default:
			err = d.skip(4)
		}
		if err != nil {
			return err
		}
	}
}

// condition decodes into the command's existing condition, if it has one:
// encoding/json reuses a non-nil pointer's target.
func (d *specDecoder) condition(c *specCommand) error {
	switch d.peek() {
	case 'n':
		c.hasCondition = false
		return d.literal("null")
	case '{':
		d.off++
	default:
		return d.typeError("condition", "an object")
	}
	if !c.hasCondition {
		c.hasCondition, c.condDevice, c.condEquals = true, span{}, span{}
	}
	for first := true; ; first = false {
		f, more, err := d.member(first, conditionFields)
		if err != nil || !more {
			return err
		}
		switch f {
		case 0:
			err = d.str("condition device", &c.condDevice, false)
		case 1:
			err = d.str("equals", &c.condEquals, true)
		default:
			err = d.skip(5)
		}
		if err != nil {
			return err
		}
	}
}

// member steps to an object's next member, just after the '{' or the
// previous value. It returns the index of the member's key in fields (-1
// for an unknown key) with the decoder at the value, or more == false
// after the closing '}'.
func (d *specDecoder) member(first bool, fields []string) (field int, more bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == '}':
		d.off++
		return 0, false, nil
	case first:
	case c == ',':
		d.off++
		d.ws()
	default:
		return 0, false, d.syntaxError("after object member")
	}
	if d.peek() != '"' {
		return 0, false, d.syntaxError("looking for object key")
	}
	mark := len(d.text)
	key, err := d.raw()
	if err != nil {
		return 0, false, err
	}
	field = matchKey(key, fields)
	d.text = d.text[:mark]
	d.ws()
	if d.peek() != ':' {
		return 0, false, d.syntaxError("after object key")
	}
	d.off++
	d.ws()
	return field, true, nil
}

// element steps to an array's next element, like member.
func (d *specDecoder) element(first bool) (more bool, err error) {
	d.ws()
	switch d.peek() {
	case ']':
		d.off++
		return false, nil
	case ',':
		if first {
			return false, d.syntaxError("looking for array element")
		}
		d.off++
		d.ws()
	default:
		if !first {
			return false, d.syntaxError("after array element")
		}
	}
	return true, nil
}

// raw decodes the string at d.off. One with nothing to unquote is returned
// in place; any other is decoded onto d.text, and the caller truncates it
// or keeps it.
func (d *specDecoder) raw() ([]byte, error) {
	start := d.off + 1
	end := start
	for end < len(d.data) && plain[d.data[end]] {
		end++
	}
	if end < len(d.data) && d.data[end] == '"' {
		d.off = end + 1
		return d.data[start:end], nil
	}
	mark := len(d.text)
	err := d.quoted()
	return d.text[mark:], err
}

// matchKey returns the index of the member a decoded key selects, or -1,
// the way encoding/json picks a field: an exact match first, then one
// under its case folding.
func matchKey(key []byte, fields []string) int {
	for i, name := range fields {
		if string(key) == name {
			return i
		}
	}
	for i, name := range fields {
		if keyFolds(key, name) {
			return i
		}
	}
	return -1
}

// keyFolds reports whether key equals name under encoding/json's key
// folding: ASCII letters in either case, and U+017F (ſ) and U+212A (Kelvin
// sign) standing for S and K. Member names are lower-case ASCII.
func keyFolds(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		want := upper(name[j])
		if c := key[i]; c < utf8.RuneSelf {
			if upper(c) != want {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		if !(r == '\u017f' && want == 'S' || r == '\u212a' && want == 'K') {
			return false
		}
		i += size
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// str decodes a string member into *s (null leaves it as it was). With
// state set, a value equal to a device state constant is kept as the
// constant instead of as text.
func (d *specDecoder) str(field string, s *span, state bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError(field, "a string")
	}
	mark := len(d.text)
	if !state {
		err := d.quoted()
		*s = span{off: mark, end: len(d.text)}
		return err
	}
	v, err := d.raw()
	if err != nil {
		return err
	}
	for _, st := range states {
		if string(v) == string(st) {
			*s, d.text = span{state: st}, d.text[:mark]
			return nil
		}
	}
	*s = d.keep(mark, v)
	return nil
}

// keep makes v, which raw returned after mark, part of the routine's text.
func (d *specDecoder) keep(mark int, v []byte) span {
	if len(d.text) == mark { // v is still in place in the input
		d.text = append(d.text, v...)
	}
	return span{off: mark, end: len(d.text)}
}

// quoted appends the JSON string at d.off to d.text, unquoted as
// encoding/json does: escapes resolved, and each byte of invalid UTF-8 and
// each unpaired surrogate escape replaced by U+FFFD.
func (d *specDecoder) quoted() error {
	d.off++ // '"'
	for {
		start := d.off
		for d.off < len(d.data) && plain[d.data[d.off]] {
			d.off++
		}
		d.text = append(d.text, d.data[start:d.off]...)
		switch c := d.peek(); {
		case c < ' ': // a control character, or the end of the input
			return d.syntaxError("in string literal")
		case c == '"':
			d.off++
			return nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[d.off:])
			d.text = utf8.AppendRune(d.text, r)
			d.off += size
		default:
			if err := d.escape(); err != nil {
				return err
			}
		}
	}
}

func (d *specDecoder) escape() error {
	d.off++ // '\\'
	var c byte
	switch d.peek() {
	case '"', '\\', '/':
		c = d.data[d.off]
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		d.off--
		r := hex4(d.data[d.off:])
		if r < 0 {
			d.off += 2
			return d.syntaxError("in \\u escape")
		}
		d.off += 6
		if utf16.IsSurrogate(r) {
			if pair := utf16.DecodeRune(r, hex4(d.data[d.off:])); pair != utf8.RuneError {
				r = pair
				d.off += 6
			} else {
				r = utf8.RuneError
			}
		}
		d.text = utf8.AppendRune(d.text, r)
		return nil
	default:
		return d.syntaxError("in string escape code")
	}
	d.text = append(d.text, c)
	d.off++
	return nil
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// durationMS decodes an int64 member (null leaves it as it was). A number
// with a fraction or exponent, or outside int64, is refused, as
// encoding/json refuses it.
func (d *specDecoder) durationMS(v *int64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
	default:
		return d.typeError("duration_ms", "an integer")
	}
	n, ok, err := d.number()
	if err != nil {
		return err
	}
	if !ok {
		return d.typeError("duration_ms", "an int64")
	}
	*v = n
	return nil
}

// number scans a JSON number; ok reports an integer literal that fits an
// int64, and n is its value.
func (d *specDecoder) number() (n int64, ok bool, err error) {
	neg := d.peek() == '-'
	if neg {
		d.off++
	}
	start := d.off
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return 0, false, d.syntaxError("in numeric literal")
	}
	end := d.off
	integer := true
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return 0, false, d.syntaxError("after decimal point in numeric literal")
		}
		integer = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return 0, false, d.syntaxError("in exponent of numeric literal")
		}
		integer = false
	}
	if !integer {
		return 0, false, nil
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range d.data[start:end] {
		digit := uint64(c - '0')
		if u > (limit-digit)/10 {
			return 0, false, nil
		}
		u = u*10 + digit
	}
	if neg {
		return -int64(u), true, nil
	}
	return int64(u), true, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *specDecoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

func (d *specDecoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntaxError("in literal " + lit)
	}
	d.off += len(lit)
	return nil
}

// skip validates and steps over a value the spec has no member for. depth
// is the nesting depth the value has if it is an object or array.
func (d *specDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		mark := len(d.text)
		_, err := d.raw()
		d.text = d.text[:mark]
		return err
	case c == '{' || c == '[':
		if depth > maxDepth {
			return errors.New("exceeded max depth")
		}
		d.off++
		for first := true; ; first = false {
			var more bool
			var err error
			if c == '{' {
				_, more, err = d.member(first, nil)
			} else {
				more, err = d.element(first)
			}
			if err != nil || !more {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// priority decodes a priority member: a known one is kept as its meaning,
// an unknown one as its text. null keeps what the command had.
func (d *specDecoder) priority(c *specCommand) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError("priority", "a string")
	}
	mark := len(d.text)
	p, err := d.raw()
	if err != nil {
		return err
	}
	if be, ok := bestEffort(p); ok {
		c.bestEffort, c.badPriority, d.text = be, span{}, d.text[:mark]
	} else {
		c.badPriority = d.keep(mark, p)
	}
	return nil
}

// bestEffort classifies a priority the way the wire format always has
// (trimmed, lower-cased synonyms); ok is false for an unknown one. The
// canonical spellings are matched without building a string.
func bestEffort(p []byte) (best, ok bool) {
	switch string(p) {
	case "", "must", "required":
		return false, true
	case "best-effort", "besteffort", "optional":
		return true, true
	}
	switch strings.ToLower(strings.TrimSpace(string(p))) {
	case "", "must", "required":
		return false, true
	case "best-effort", "besteffort", "optional":
		return true, true
	}
	return false, false
}

// routine checks the decoded spec as the wire format requires and builds
// the Routine: one allocation for the routine, one for its commands, one
// for the text of every name and device, and one for its conditions if it
// has any.
func (d *specDecoder) routine() (*Routine, error) {
	name := d.text[d.name.off:d.name.end]
	if len(bytes.TrimSpace(name)) == 0 {
		return nil, errors.New("routine: spec missing routine_name")
	}
	cmds := d.cmds[:d.n]
	conditions := 0
	for i := range cmds {
		c := &cmds[i]
		if c.device.empty() || c.action.empty() {
			return nil, fmt.Errorf("routine: spec command %d missing device or action", i)
		}
		if c.durationMS < 0 || c.durationMS > maxDurationMS {
			return nil, fmt.Errorf("routine: spec command %d duration_ms %d outside [0, %d]", i, c.durationMS, maxDurationMS)
		}
		if !c.badPriority.empty() {
			return nil, fmt.Errorf("routine: spec command %d has unknown priority %q", i, d.text[c.badPriority.off:c.badPriority.end])
		}
		if c.hasCondition {
			conditions++
		}
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("routine: spec %q has no commands", name)
	}

	text := string(d.text)
	str := func(s span) string {
		if s.state != "" {
			return string(s.state)
		}
		return text[s.off:s.end]
	}
	r := &Routine{Name: str(d.name), User: str(d.user), Commands: make([]Command, len(cmds))}
	var conds []Condition
	if conditions > 0 {
		conds = make([]Condition, 0, conditions)
	}
	for i := range cmds {
		c := &cmds[i]
		r.Commands[i] = Command{
			Device:     device.ID(str(c.device)),
			Target:     device.State(str(c.action)),
			Duration:   time.Duration(c.durationMS) * time.Millisecond,
			BestEffort: c.bestEffort,
		}
		if c.hasCondition {
			conds = append(conds, Condition{Device: device.ID(str(c.condDevice)), Equals: device.State(str(c.condEquals))})
			r.Commands[i].Condition = &conds[len(conds)-1]
		}
	}
	return r, nil
}

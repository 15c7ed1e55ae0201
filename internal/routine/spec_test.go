package routine

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"safehome/internal/device"
)

// oracleParseSpec is the reference implementation ParseSpec is held to: the
// encoding/json decode into specJSON that ParseSpec used to be, followed by
// the same checks in the same order. It is never on a runtime path.
func oracleParseSpec(data []byte) (*Routine, error) {
	var spec specJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("routine: parsing spec: %w", err)
	}
	if strings.TrimSpace(spec.RoutineName) == "" {
		return nil, errors.New("routine: spec missing routine_name")
	}
	r := &Routine{Name: spec.RoutineName, User: spec.User}
	for i, cj := range spec.Commands {
		if cj.Device == "" || cj.Action == "" {
			return nil, fmt.Errorf("routine: spec command %d missing device or action", i)
		}
		if cj.DurationMS < 0 || cj.DurationMS > maxDurationMS {
			return nil, fmt.Errorf("routine: spec command %d duration_ms %d outside [0, %d]", i, cj.DurationMS, maxDurationMS)
		}
		cmd := Command{
			Device:    device.ID(cj.Device),
			Target:    device.State(cj.Action),
			Duration:  time.Duration(cj.DurationMS) * time.Millisecond,
			Condition: cj.Condition,
		}
		switch strings.ToLower(strings.TrimSpace(cj.Priority)) {
		case "", "must", "required":
			cmd.BestEffort = false
		case "best-effort", "besteffort", "optional":
			cmd.BestEffort = true
		default:
			return nil, fmt.Errorf("routine: spec command %d has unknown priority %q", i, cj.Priority)
		}
		r.Commands = append(r.Commands, cmd)
	}
	if len(r.Commands) == 0 {
		return nil, fmt.Errorf("routine: spec %q has no commands", spec.RoutineName)
	}
	return r, nil
}

// checkAgainstOracle fails t unless ParseSpec and the oracle agree on doc:
// both refuse it — with the same message when the document is well-typed
// JSON and a wire-format rule refused it — or both build DeepEqual
// routines that no later write to doc can change.
func checkAgainstOracle(t *testing.T, doc []byte) {
	t.Helper()
	want, wantErr := oracleParseSpec(doc)
	got, err := ParseSpec(doc)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseSpec(%q): err = %v, oracle err = %v", doc, err, wantErr)
	}
	if err != nil {
		const decodeFailure = "routine: parsing spec: "
		if !strings.HasPrefix(err.Error(), "routine: ") {
			t.Fatalf("ParseSpec(%q): error %q lacks the routine: prefix", doc, err)
		}
		if strings.HasPrefix(err.Error(), decodeFailure) != strings.HasPrefix(wantErr.Error(), decodeFailure) ||
			!strings.HasPrefix(err.Error(), decodeFailure) && err.Error() != wantErr.Error() {
			t.Fatalf("ParseSpec(%q): err = %q, oracle err = %q", doc, err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSpec(%q) =\n%#v\noracle:\n%#v", doc, got, want)
	}
	for i := range doc {
		doc[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("routine changed when its input was overwritten: %#v", got)
	}
}

// benchSpec has the shape of the benchmark's submit bodies.
const benchSpec = `{"routine_name":"bench-00042","user":"user-03","commands":[` +
	`{"device":"plug-3","action":"ON","duration_ms":180000,"priority":"must"},` +
	`{"device":"plug-11","action":"OFF","duration_ms":60000,"priority":"must"},` +
	`{"device":"plug-7","action":"ON","duration_ms":300000,"priority":"must"}]}`

// specOracleCases are documents at the edges of what encoding/json accepts.
var specOracleCases = []string{
	benchSpec,
	" \t\r\n" + benchSpec + "\n\t ",
	`{ "routine_name" : "x" , "commands" : [ { "device" : "a" , "action" : "ON" } ] }`,
	// Escapes, surrogate pairs, lone surrogates, invalid UTF-8.
	`{"routine_name":"a\"b\\c\/d\be\ff\ng\rh\tiAé中","commands":[{"device":"😀","action":"ON"}]}`,
	`{"routine_name":"\ud800","commands":[{"device":"\udc00x","action":"\ud800A"}]}`,
	`{"routine_name":"😀􏿿","commands":[{"device":"a","action":"ON"}]}`,
	"{\"routine_name\":\"\xff\xfe\xed\xa0\x80ok\xc3\",\"commands\":[{\"device\":\"\xe4\xb8\",\"action\":\"ON\"}]}",
	"{\"routine_name\":\"\xef\xbf\xbd\",\"commands\":[{\"device\":\"a\",\"action\":\"ON\"}]}",
	`{"routine_name":"x","commands":[{"device":"a","action":"\u0000"}]}`,
	`{"routine_name":"x\u","commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x\u12g4","commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x\ud800\u12g4","commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x\'","commands":[{"device":"a","action":"ON"}]}`,
	"{\"routine_name\":\"x\ty\",\"commands\":[{\"device\":\"a\",\"action\":\"ON\"}]}",
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}]`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}]}}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}]} x`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"},]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON",}]}`,
	`{"routine_name":"x",,"commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x","commands":[,{"device":"a","action":"ON"}]}`,
	`{"routine_name" "x","commands":[{"device":"a","action":"ON"}]}`,
	`{'routine_name':"x"}`,
	``, ` `, `null`, ` null `, `nul`, `nulll`, `[]`, `"x"`, `1`, `true`, `{}`, `{`, `}`,
	// null members: strings and numbers keep their value, pointers and
	// slices are cleared, a null element leaves the element as it was.
	`{"routine_name":null,"commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x","routine_name":null,"user":null,"commands":[{"device":"a","action":"ON","duration_ms":null,"priority":null,"condition":null}]}`,
	`{"routine_name":"x","commands":null}`,
	`{"routine_name":"x","commands":[null]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"commands":[null]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":"optional"}],"commands":[{"priority":null}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":"w","equals":"OPEN"}}],"commands":[{"condition":null}]}`,
	// Repeated keys: the last wins, and a repeated array or object decodes
	// into what the earlier one left.
	`{"routine_name":"x","routine_name":"y","user":"u","user":"v","commands":[{"device":"a","device":"b","action":"ON","action":"OFF"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"},{"device":"b","action":"OFF"}],"commands":[{"device":"c"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"},{"device":"b","action":"OFF"}],"commands":[{"device":"c"}],"commands":[{},{}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"},{"device":"b","action":"OFF"}],"commands":[],"commands":[{},{}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"},{"device":"b","action":"OFF"}],"commands":null,"commands":[{"device":"c"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":"w","equals":"OPEN"}}],"commands":[{"condition":{"equals":"CLOSED"}}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":"w"},"condition":{"equals":"ON"}}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":"w"},"condition":null,"condition":{"equals":"ON"}}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":"urgent","priority":"must"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":"must","priority":"urgent"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-5,"duration_ms":5}]}`,
	// Unknown members of every type, nested, are skipped.
	`{"v":1,"routine_name":"x","extra":{"a":[1,-2.5e+3,true,false,null,"s",{"b":{}}],"c":[]},"commands":[{"device":"a","x":[[]],"action":"ON","condition":{"device":"w","equals":"ON","z":{"q":0}}}],"tail":"t"}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"extra":[1,]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"extra":{"a"}}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"extra":tru}`,
	// Case-insensitive keys, with encoding/json's folds of ſ and K.
	`{"ROUTINE_NAME":"x","Commands":[{"DEVICE":"a","Action":"ON","Duration_MS":1000,"PRIORITY":"OPTIONAL"}]}`,
	`{"routine_name":"x","commandſ":[{"device":"a","action":"ON","duration_mſ":5,"condition":{"device":"w","equalſ":"ON"}}],"uſer":"u"}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"ROUTINE_NAME":"y","routine_name":"z"}`,
	`{"routine_name":"x","command\u017f":[{"device":"a","action":"ON","\u0064evice":"b"}]}`,
	"{\"routine_name\":\"x\",\"commands\":[{\"device\":\"a\",\"action\":\"ON\",\"\u212a\":1,\"\u212apriority\":\"urgent\"}]}",
	`{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"routine_name ":"y","routinename":"z","routine_nam":"w"}`,
	// Priorities are trimmed and lower-cased (İ lower-cases to i).
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":" Best-Effort "},{"device":"b","action":"ON","priority":"requİred"},{"device":"c","action":"ON","priority":"BESTEFFORT"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":"\u0085"}]}`,
	// Names are trimmed only to test for emptiness.
	`{"routine_name":"  ","commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":" y ","commands":[{"device":"a","action":"ON"}]}`,
	// Numbers: integers only, within int64, then within maxDurationMS.
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-0}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":1.5}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":1e3}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":01}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":1.}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":1e}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":"5"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":9223372036854}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":9223372036855}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":9223372036854775807}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":9223372036854775808}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-9223372036854775808}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-9223372036854775809}]}`,
	// Wrong member types.
	`{"routine_name":5,"commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x","user":true,"commands":[{"device":"a","action":"ON"}]}`,
	`{"routine_name":"x","commands":{}}`,
	`{"routine_name":"x","commands":[5]}`,
	`{"routine_name":"x","commands":[{"device":["a"],"action":"ON"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":"w"}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":1}}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":1}]}`,
	// Conditions pass through unchecked, even empty ones.
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{}}]}`,
	`{"routine_name":"x","commands":[{"device":"a","action":"ON","condition":{"device":"w","equals":"OPEN"}},{"device":"b","action":"LOCKED","condition":{"device":"d","equals":"dim"}}]}`,
	// More commands than the decoder's first slab.
	`{"routine_name":"x","commands":[{"device":"a0","action":"ON"},{"device":"a1","action":"ON"},{"device":"a2","action":"ON"},{"device":"a3","action":"ON"},{"device":"a4","action":"ON"},{"device":"a5","action":"ON"},{"device":"a6","action":"ON"},{"device":"a7","action":"ON"},{"device":"a8","action":"ON"},{"device":"a9","action":"ON"}]}`,
}

func TestParseSpecMatchesOracle(t *testing.T) {
	for _, doc := range specOracleCases {
		checkAgainstOracle(t, []byte(doc))
	}
	for name, doc := range parseSpecErrorCases {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, []byte(doc)) })
	}
	for _, r := range []*Routine{cooling(), breakfast(), guardedFixture()} {
		doc, err := MarshalSpec(r)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, doc)
	}
}

func guardedFixture() *Routine {
	r := New("Prepare Breakfast",
		Command{Device: "coffee-maker", Target: device.On, Duration: 4 * time.Minute},
		Command{Device: "toaster", Target: device.On, BestEffort: true},
		Command{Device: "ac", Target: device.On, Condition: &Condition{Device: "window", Equals: device.Closed}},
	)
	r.User = "alice"
	return r
}

// TestParseSpecDepthLimit holds ParseSpec to encoding/json's nesting limit
// of 10000 inside a skipped member.
func TestParseSpecDepthLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000} { // plus the top-level object
		doc := `{"routine_name":"x","commands":[{"device":"a","action":"ON"}],"deep":` +
			strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkAgainstOracle(t, []byte(doc))
	}
	_, err := ParseSpec([]byte(`{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("10001 levels: err = %v, want the depth limit", err)
	}
}

// TestParseSpecSharesStateStrings: actions and condition states that are
// device.State constants reuse the constant, and every other string of the
// routine lives in one block copied out of the input.
func TestParseSpecSharesStateStrings(t *testing.T) {
	r, err := ParseSpec([]byte(`{"routine_name":"n","user":"u","commands":[{"device":"d","action":"ON","condition":{"device":"w","equals":"UNLOCKED"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Commands[0].Target; unsafeData(string(got)) != unsafeData(string(device.On)) {
		t.Error("action ON does not reuse device.On")
	}
	if got := r.Commands[0].Condition.Equals; unsafeData(string(got)) != unsafeData(string(device.Unlocked)) {
		t.Error("equals UNLOCKED does not reuse device.Unlocked")
	}
	base := unsafeData(r.Name)
	for i, s := range []string{r.User, string(r.Commands[0].Device), string(r.Commands[0].Condition.Device)} {
		if unsafeData(s) != base+uintptr(i+1) {
			t.Errorf("string %q is not in the routine's text block", s)
		}
	}
}

func unsafeData(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// parseSpecAllocBudget is ParseSpec's allocation budget for a benchmark-shaped
// body: the Routine, its []Command and one block for its strings. A
// reflective decode, a per-string copy or scratch that is not recycled all
// show up as more.
const parseSpecAllocBudget = 3

func TestParseSpecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop decoders at random")
	}
	body := []byte(benchSpec)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := ParseSpec(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseSpecAllocBudget {
		t.Fatalf("ParseSpec: %.1f allocs per benchmark-shaped body, budget %d", allocs, parseSpecAllocBudget)
	}
}

func FuzzParseSpec(f *testing.F) {
	for _, doc := range specOracleCases {
		f.Add([]byte(doc))
	}
	for _, doc := range parseSpecErrorCases {
		f.Add([]byte(doc))
	}
	for _, r := range []*Routine{cooling(), breakfast(), guardedFixture()} {
		doc, err := MarshalSpec(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(checkAgainstOracle)
}

func BenchmarkParseSpec(b *testing.B) {
	body := []byte(benchSpec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSpec(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSpecOracle(b *testing.B) {
	body := []byte(benchSpec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oracleParseSpec(body); err != nil {
			b.Fatal(err)
		}
	}
}

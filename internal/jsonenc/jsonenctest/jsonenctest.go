// Package jsonenctest holds the edge values the differential tests of
// jsonenc's callers draw from: every class of string byte, time and integer
// encoding/json treats specially, and generators that assemble values from
// them.
package jsonenctest

import (
	"math"
	"math/rand"
	"time"
)

// StringPieces are the fragments generated strings are assembled from: every
// class of byte encoding/json treats specially, and the plain ones around
// them.
var StringPieces = []string{
	"", "plug-0", "Good Morning", "a", " ", "/", "'", "=", "~", "\x7f",
	`"`, `\`, `\"`, `\\u0041`, "<", ">", "&", "<script>&amp;</script>",
	"\x00", "\x01", "\x07", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x1f",
	"é", "ß", "日本語", "🙂", "\u2028", "\u2029", "\u2027", "\u202a", "\ufffd",
	"\xff", "\xc0\xaf", "\xe2\x80", "\xf0\x9f\x99", "\xed\xa0\x80", "\x80",
}

// String concatenates up to five random StringPieces.
func String(rng *rand.Rand) string {
	var s string
	for n := rng.Intn(6); n > 0; n-- {
		s += StringPieces[rng.Intn(len(StringPieces))]
	}
	return s
}

// Zones cover UTC, the local zone, whole- and half-hour offsets, an
// offset with seconds, and two offsets Time.MarshalJSON refuses (a day or
// more either way).
var Zones = []*time.Location{
	time.UTC, time.Local,
	time.FixedZone("IST", 5*3600+1800), time.FixedZone("PST", -8*3600),
	time.FixedZone("odd", 3600+30), time.FixedZone("", -1),
	time.FixedZone("far", 24*3600), time.FixedZone("farther", -100*3600),
}

// Time draws a time from the zero time, whole seconds, millisecond and
// nanosecond fractions, a monotonic reading and the years around RFC 3339's
// range, in one of Zones.
func Time(rng *rand.Rand) time.Time {
	var t time.Time
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		t = time.Date(2021, 4, 26, 9, 30, 0, 0, time.UTC) // whole seconds
	case 2:
		t = time.Unix(rng.Int63n(4e9), int64(rng.Intn(1000))*1e6) // milliseconds
	case 3:
		t = time.Unix(rng.Int63n(4e9), 1) // one nanosecond
	case 4:
		t = time.Unix(rng.Int63n(4e9), 999999999)
	case 5:
		t = time.Now() // carries a monotonic reading
	case 6:
		// Around the edges of what RFC 3339 can say: years -1, 0, 9999, 10000.
		t = time.Date([]int{-1, 0, 9999, 10000}[rng.Intn(4)], 12, 31, 23, 59, 59, rng.Intn(1e9), time.UTC)
	default:
		t = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9))
	}
	return t.In(Zones[rng.Intn(len(Zones))])
}

// Ints are the integers whose decimal form has an edge: zero, signs, digit
// count changes and the 32- and 64-bit limits.
var Ints = []int64{0, 1, -1, 9, 10, 255, 256, -1000, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// Int draws one of Ints two times in three, a small value otherwise.
func Int(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return rng.Int63n(1000)
	}
	return Ints[rng.Intn(len(Ints))]
}

// Maybe zeroes a value about one time in three, so omitempty fields take
// both branches.
func Maybe[T any](rng *rand.Rand, v T) T {
	if rng.Intn(3) == 0 {
		var zero T
		return zero
	}
	return v
}

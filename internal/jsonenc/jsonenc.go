// Package jsonenc holds the append-style JSON primitives that the hub's hot
// replies and the journal's records are written with instead of
// encoding/json reflection.
//
// The rule the primitives live under: for every value, a document built from
// them is byte for byte what encoding/json (json.Marshal, or Encoder.Encode
// without its trailing newline) produces for the same value — HTML-safe
// string escaping, RFC 3339-nano times (a zero time is not "empty"), decimal
// integers — and a value encoding/json refuses to encode (a time outside
// years 0..9999, or with a zone offset of a day or more) marks the document
// Bad rather than producing output encoding/json would not. Key order and
// omitempty are the caller's: each helper appends the literal it is given
// (separator, quoted key, colon) and then the value. The callers' tests hold
// the documents to the reflective encoder; jsonenctest has the edge values
// they draw from.
package jsonenc

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// Buf is a JSON document under construction.
type Buf struct {
	B []byte
	// Bad records that a value encoding/json refuses to encode was appended;
	// the document must not be used (encoding/json would have returned an
	// error and no output).
	Bad bool
}

// Raw appends a literal.
func (w *Buf) Raw(lit string) { w.B = append(w.B, lit...) }

// Int appends key, then n in decimal.
func (w *Buf) Int(key string, n int64) {
	w.B = strconv.AppendInt(append(w.B, key...), n, 10)
}

// Uint appends key, then n in decimal.
func (w *Buf) Uint(key string, n uint64) {
	w.B = strconv.AppendUint(append(w.B, key...), n, 10)
}

// Time appends key, then t as Time.MarshalJSON renders it, including its
// refusals: RFC 3339 has no year beyond four digits and no zone offset of a
// day or more.
func (w *Buf) Time(key string, t time.Time) {
	b := append(w.B, key...)
	b = append(b, '"')
	start := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[start+len("9999")] != '-' {
		w.Bad = true
	} else if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("Z07:00"):]
		if c := zone[0]; ('0' <= c && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			w.Bad = true
		}
	}
	w.B = append(b, '"')
}

const hexDigits = "0123456789abcdef"

// Str appends key, then s as encoding/json quotes a string with HTML
// escaping on (the json.Marshal and Encoder default): ", \ and control bytes
// escaped, <, > and & as \u00XX, U+2028/2029 escaped, each invalid UTF-8 byte
// replaced by the escape of U+FFFD.
func (w *Buf) Str(key, s string) {
	b := append(w.B, key...)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029:
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	w.B = append(b, '"')
}

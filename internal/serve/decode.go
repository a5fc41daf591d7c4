package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Request decoding. Every JSON body kernregd and kerncoord accept is
// decoded by decodeRequest, in one pass over bytes read once into a
// pooled buffer:
//
//   - the decoder walks the top-level object itself;
//   - each []float64 member of the destination struct (x, y, points)
//     is parsed straight from the bytes into a slice allocated once at
//     its exact length;
//   - every other member is copied verbatim into one small spliced
//     object and decoded by encoding/json with DisallowUnknownFields,
//     so scalars, pointers, strings and nested arrays keep the
//     standard library's semantics exactly.
//
// Numbers are bit-identical to encoding/json's: an element either
// takes Clinger's exact fast path, which is one correctly rounded IEEE
// operation on exact operands, or goes to strconv.ParseFloat, the call
// encoding/json makes. Three inputs encoding/json accepts are refused
// with 400: a null element of a float array (encoding/json stores 0),
// a float array member given twice (last wins), and a float array key
// spelled in another case ("X", encoding/json folds it onto "x").

// Body limits. A body may carry bodyOverhead bytes beyond its float
// arrays plus bytesPerFloat for each element they may hold: the
// longest shortest-form float64, "-2.2250738585072014e-308", is 24
// bytes, plus its comma and some whitespace.
const (
	bodyOverhead  = 64 << 10
	bytesPerFloat = 32
)

// BodyLimit is the byte limit of a body carrying at most floats float
// array elements.
func BodyLimit(floats int) int64 {
	return bodyOverhead + bytesPerFloat*int64(floats)
}

// bodyPool recycles the buffers request bodies are read into. A buffer
// lives only while its body is decoded: the float arrays are fresh
// slices and encoding/json copies every string it stores.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecodeRequest reads r's body, of at most limit bytes, and decodes the
// one JSON object in it into dst, a pointer to a struct; each float
// array member may hold at most maxElems elements. On failure it
// returns the response status, 400 or 413, and the error to report.
func DecodeRequest(w http.ResponseWriter, r *http.Request, limit int64, maxElems int, dst any) (int, error) {
	if herr := decodeRequest(w, r, limit, maxElems, dst); herr != nil {
		return herr.status, herr
	}
	return 0, nil
}

func decodeRequest(w http.ResponseWriter, r *http.Request, limit int64, maxElems int, dst any) *httpError {
	if r.ContentLength > limit {
		return tooLarge("request body of %d bytes exceeds the limit of %d", r.ContentLength, limit)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if r.ContentLength > 0 {
		// ReadFrom wants MinRead bytes free before each read, the one
		// that reports io.EOF included.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return tooLarge("request body exceeds the limit of %d bytes", limit)
	case err != nil:
		return badRequest("reading request body: %v", err)
	}
	return decodeObject(buf.Bytes(), maxElems, dst)
}

// floatField is a []float64 member of a request struct.
type floatField struct {
	name  string // the JSON key
	index int    // the struct field index
}

// floatFieldCache maps a request struct type to its []float64 members.
var floatFieldCache sync.Map

func floatFields(t reflect.Type) []floatField {
	if ff, ok := floatFieldCache.Load(t); ok {
		return ff.([]floatField)
	}
	var ff []floatField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.IsExported() && f.Type == reflect.TypeOf([]float64(nil)) && name != "" && name != "-" {
			ff = append(ff, floatField{name: name, index: i})
		}
	}
	floatFieldCache.Store(t, ff)
	return ff
}

// decodeObject decodes the JSON object in b into dst (see the package
// comment above). A null body leaves dst untouched, as encoding/json
// does.
func decodeObject(b []byte, maxElems int, dst any) *httpError {
	v := reflect.ValueOf(dst).Elem()
	fields := floatFields(v.Type())
	d := scanner{b: b}
	d.skipSpace()
	if d.literal("null") {
		return d.end()
	}
	if !d.consume('{') {
		return badRequest("invalid JSON body: want an object")
	}
	var (
		rest []byte // "{" and the members encoding/json decodes
		seen uint64 // bit i: fields[i] was given
	)
	d.skipSpace()
	if !d.consume('}') {
		for {
			start := d.i
			key, herr := d.key()
			if herr != nil {
				return herr
			}
			d.skipSpace()
			if !d.consume(':') {
				return badRequest("invalid JSON body: want ':' after key at offset %d", d.i)
			}
			d.skipSpace()
			fi, herr := matchFloatField(fields, key)
			if herr != nil {
				return herr
			}
			if fi >= 0 {
				f := fields[fi]
				if seen&(1<<fi) != 0 {
					return badRequest("invalid JSON body: %q given twice", f.name)
				}
				seen |= 1 << fi
				out, herr := d.floatArray(f.name, maxElems)
				if herr != nil {
					return herr
				}
				*v.Field(f.index).Addr().Interface().(*[]float64) = out
			} else {
				if herr := d.skipValue(); herr != nil {
					return herr
				}
				if len(rest) == 0 {
					rest = append(rest, '{')
				} else {
					rest = append(rest, ',')
				}
				rest = append(rest, b[start:d.i]...)
			}
			d.skipSpace()
			if d.consume(',') {
				d.skipSpace()
				continue
			}
			if d.consume('}') {
				break
			}
			return badRequest("invalid JSON body: want ',' or '}' at offset %d", d.i)
		}
	}
	if herr := d.end(); herr != nil {
		return herr
	}
	if len(rest) == 0 {
		return nil
	}
	if seen == 0 {
		// Nothing was taken out: decode the body as it came.
		rest = b
	} else {
		rest = append(rest, '}')
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// matchFloatField returns the index in fields of the float array key
// names, or -1. A key that encoding/json would fold onto a float array
// without being spelled exactly like it is refused.
func matchFloatField(fields []floatField, key []byte) (int, *httpError) {
	for i, f := range fields {
		if string(key) == f.name {
			return i, nil
		}
		if bytes.EqualFold(key, []byte(f.name)) {
			return -1, badRequest("invalid JSON body: key %q must be spelled %q", key, f.name)
		}
	}
	return -1, nil
}

// scanner walks a JSON document in b from offset i.
type scanner struct {
	b []byte
	i int
}

func (d *scanner) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *scanner) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *scanner) literal(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// end requires nothing but whitespace after the object.
func (d *scanner) end() *httpError {
	d.skipSpace()
	if d.i != len(d.b) {
		return badRequest("invalid JSON body: trailing data after object")
	}
	return nil
}

// skipString moves past the JSON string opening at d.i. Its content is
// left to whoever decodes it.
func (d *scanner) skipString() *httpError {
	i := d.i + 1
	for {
		j := bytes.IndexByte(d.b[i:], '"')
		if j < 0 {
			return badRequest("invalid JSON body: unterminated string")
		}
		i += j
		backslashes := 0
		for k := i - 1; k > d.i && d.b[k] == '\\'; k-- {
			backslashes++
		}
		i++
		if backslashes%2 == 0 {
			d.i = i
			return nil
		}
	}
}

// key moves past an object key and returns its decoded value.
func (d *scanner) key() ([]byte, *httpError) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, badRequest("invalid JSON body: want a string key at offset %d", d.i)
	}
	start := d.i
	if herr := d.skipString(); herr != nil {
		return nil, herr
	}
	raw := d.b[start+1 : d.i-1]
	for _, c := range raw {
		if c == '\\' || c < ' ' || c >= 0x80 {
			// Escapes, control bytes and non-ASCII: let encoding/json
			// decide what the key is, or that it is not one.
			var s string
			if err := json.Unmarshal(d.b[start:d.i], &s); err != nil {
				return nil, badRequest("invalid JSON body: %v", err)
			}
			return []byte(s), nil
		}
	}
	return raw, nil
}

// skipValue moves past one JSON value without checking its content:
// the bytes it spans go to encoding/json, which does.
func (d *scanner) skipValue() *httpError {
	if d.i >= len(d.b) {
		return badRequest("invalid JSON body: unexpected end of input")
	}
	switch d.b[d.i] {
	case '"':
		return d.skipString()
	case '{', '[':
		depth := 0
		for d.i < len(d.b) {
			switch d.b[d.i] {
			case '"':
				if herr := d.skipString(); herr != nil {
					return herr
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			d.i++
			if depth == 0 {
				return nil
			}
		}
		return badRequest("invalid JSON body: unexpected end of input")
	}
	start := d.i
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			if d.i == start {
				return badRequest("invalid JSON body: want a value at offset %d", d.i)
			}
			return nil
		}
		d.i++
	}
	return nil
}

// floatArray parses the JSON array of numbers at d.i, or null. The
// slice is allocated once, at the length counted from the commas up
// to the first ']', and only when that is at most maxElems.
func (d *scanner) floatArray(name string, maxElems int) ([]float64, *httpError) {
	if d.literal("null") {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, badRequest("invalid JSON body: %s must be an array of numbers", name)
	}
	d.skipSpace()
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return nil, badRequest("invalid JSON body: %s is not terminated", name)
	}
	n := 0
	if end > 0 {
		n = bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
	}
	if n > maxElems {
		return nil, tooLarge("%s has more than %d elements", name, maxElems)
	}
	out := make([]float64, n)
	for k := range out {
		d.skipSpace()
		f, size, ok := parseNumber(d.b[d.i:])
		switch {
		case !ok && size < 0 && d.literal("null"):
			return nil, badRequest("%s[%d] is null", name, k)
		case !ok && size < 0:
			return nil, badRequest("%s[%d] is not a number", name, k)
		case !ok:
			return nil, badRequest("%s[%d] is out of range", name, k)
		}
		d.i += size
		out[k] = f
		d.skipSpace()
		sep := byte(',')
		if k == n-1 {
			sep = ']'
		}
		if !d.consume(sep) {
			return nil, badRequest("invalid JSON body: %s[%d] is not followed by %q", name, k, sep)
		}
	}
	if n == 0 {
		d.i++ // the ']' right after '['
	}
	return out, nil
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseNumber parses the JSON number at the start of b, returning it
// and the bytes it spans. On failure n is -1 if b does not start with
// a number in JSON's grammar, and the number's length if it is outside
// float64's range.
//
// A mantissa of at most 19 significant digits below 2^53 with a
// decimal exponent within ±22 is exact, and so is the power of ten:
// one IEEE multiply or divide then rounds correctly, which is what
// strconv.ParseFloat returns (Clinger's fast path). Anything else is
// handed to strconv.ParseFloat.
func parseNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		mant   uint64 // the first 19 significant digits
		digits int    // significant digits, leading zeros excluded
		exp10  int
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			digits++
		}
	default:
		return 0, -1, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if digits == 0 && b[i] == '0' {
				exp10--
				continue
			}
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				exp10--
			}
			digits++
		}
		if i == start {
			return 0, -1, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, -1, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if digits <= 19 && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f = float64(mant)
		if exp10 >= 0 {
			f *= pow10[exp10]
		} else {
			f /= pow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, i, false
	}
	return f, i, true
}

package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coord"
	"repro/internal/serve"
)

// stdlibDecode is the reference the request decoder is held to:
// encoding/json with unknown fields refused and nothing but whitespace
// after the object.
func stdlibDecode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("trailing data after object")
	}
	return nil
}

// decode runs serve.DecodeRequest on data with the given limits.
func decode(data []byte, limit int64, maxElems int, dst any) (int, error) {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	return serve.DecodeRequest(httptest.NewRecorder(), r, limit, maxElems, dst)
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits,
// so -0 and 0 differ, and with nil and empty slices told apart.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// tightening matches the decoder's refusals of inputs encoding/json
// accepts: a null array element, a float array key given twice or in
// another spelling, and an array over the element limit.
var tightening = regexp.MustCompile(`^(\w+\[\d+\] is null|invalid JSON body: key .* must be spelled "\w+"|invalid JSON body: "\w+" given twice|\w+ has more than \d+ elements)$`)

// FuzzRequestDecodeVsStdlib holds the request decoder to encoding/json
// on the three request types with float arrays: both accept the same
// bodies, except the documented tightenings, which must be 4xx, and
// what they accept decodes to the same struct bit for bit.
func FuzzRequestDecodeVsStdlib(f *testing.F) {
	const maxElems = 100
	for _, s := range []string{
		``,
		`null`,
		` {} `,
		`[1,2]`,
		`{"x":[1,2],"y":[3.5,-4e-3]}`,
		`{"x":[1,2],"y":[1,2],"method":"gpu","kernel":"uniform","grid_size":3,"stable":false}`,
		`{"x":[],"y":null,"bags":2,"bag_size":3,"seed":-1,"aggregation":"median"}`,
		`{"method":"mv","x_matrix":[[1,2],[3,4]],"y":[1,2],"mesh":true}`,
		`{"x":[1,2],"y":[1,2],"points":[0.5],"bandwidth":0.1}`,
		`{"x":[1,null,3]}`,
		`{"X":[1]}`,
		`{"poinTſ":[1]}`,
		`{"x":[1],"y":[2]}`,
		`{"x":[1],"x":[2]}`,
		`{"method":"a","method":"b"}`,
		`{"Method":"sorted","GRID_SIZE":4}`,
		`{"x":[1,2],"y":[1,2]}{}`,
		`{"x":[1,2],"y":[1,2]}}`,
		`{"x":[1,2] , "y" : [ 1 , 2 ] }` + "\n",
		`{"x":[1e400],"y":[-0,0.0,1E+2,5e-324,1e-400]}`,
		`{"x":[01],"y":[1.],"z":[.5]}`,
		`{"x":[1,],"y":[,1]}`,
		`{"x":[[1]],"y":["1"]}`,
		`{"x":{"a":[1]},"y":true}`,
		`{"kernel":"a\"]b","x":[1]}`,
		`{"grid_min":1e999}`,
		`{"x":[123456789012345678901234567890,9007199254740993,0.1e23]}`,
		`{"x":[` + strings.Repeat("1,", maxElems) + `1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(got, want any) {
			t.Helper()
			status, err := decode(data, 1<<20, maxElems, got)
			refErr := stdlibDecode(data, want)
			switch {
			case err != nil && (status < 400 || status >= 500):
				t.Fatalf("%T: status %d for %q, want 4xx", got, status, err)
			case err != nil && refErr == nil && !tightening.MatchString(err.Error()):
				t.Fatalf("%T: decoder refused %q (%v), encoding/json accepted it", got, data, err)
			case err == nil && refErr != nil:
				t.Fatalf("%T: decoder accepted %q, encoding/json refused it: %v", got, data, refErr)
			case err == nil && !bitsEqual(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()):
				t.Fatalf("%T: %q decoded to\n%+v\nencoding/json gives\n%+v", got, data, got, want)
			}
		}
		check(new(serve.SelectRequest), new(serve.SelectRequest))
		check(new(serve.FitPredictRequest), new(serve.FitPredictRequest))
		check(new(coord.SelectRequest), new(coord.SelectRequest))
	})
}

// TestFastFloatMatchesParseFloat checks array elements, whichever path
// parses them, against strconv.ParseFloat bit for bit: over a million
// random values in 'g', 'f' and 'e' form at random precisions, plus
// the boundary cases of the exact fast path.
func TestFastFloatMatchesParseFloat(t *testing.T) {
	special := []string{
		"0", "-0", "0.0", "-0.0", "0e5", "-0e-5", "0.000", "1", "-1",
		"5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
		"2.2250738585072014e-308", "1.7976931348623157e308", "1e-400",
		"9007199254740991", "9007199254740992", "9007199254740993",
		"9007199254740994", "9007199254740995", "4503599627370495.5",
		"900719925474099.1", "90071992547409.93", "9.007199254740993e15",
		"1234567890123456789", "12345678901234567890", "1234567890123456789e-22",
		"0.1234567890123456789", "0.12345678901234567890", "99999999999999999999",
		"1e22", "1e23", "1e-22", "1e-23", "-1e22", "1.5e22", "15e21", "1e21",
		"9007199254740991e22", "9007199254740991e-22", "9007199254740991e23",
		"0.000001", "0.1", "0.2", "0.3", "1.0000000000000002", "4e-320",
		"0.0000000000000000000000000000001e31", "100000000000000000000000",
	}
	rng := rand.New(rand.NewSource(7))
	const total = 1_200_000
	const batch = 10_000
	vals := append([]string(nil), special...)
	for len(vals) < total {
		var v float64
		switch rng.Intn(4) {
		case 0:
			v = rng.Float64()
		case 1:
			v = rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			v = float64(rng.Int63n(1 << 54))
		default:
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		format := "gfe"[rng.Intn(3)]
		if format == 'f' && (math.Abs(v) > 1e30 || math.Abs(v) < 1e-30) {
			format = 'g'
		}
		vals = append(vals, strconv.FormatFloat(v, format, rng.Intn(22)-1, 64))
	}
	for lo := 0; lo < len(vals); lo += batch {
		chunk := vals[lo:min(lo+batch, len(vals))]
		var (
			kept []string
			want []float64
		)
		for _, s := range chunk {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				// Out of float64's range: the decoder must refuse it,
				// which TestDecodeRejections covers.
				continue
			}
			kept = append(kept, s)
			want = append(want, f)
		}
		body := []byte(`{"x":[` + strings.Join(kept, ",") + `]}`)
		var got struct {
			X []float64 `json:"x"`
		}
		if _, err := decode(body, int64(len(body)), len(kept), &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range want {
			if math.Float64bits(got.X[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: decoded %v (%#x), ParseFloat gives %v (%#x)",
					kept[i], got.X[i], math.Float64bits(got.X[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestDecodeRejections locks the status and message of the decoder's
// own refusals.
func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		status int
		msg    string
	}{
		{"null element", `{"x":[1,null,3],"y":[1,2,3]}`, 400, "x[1] is null"},
		{"null first element", `{"points":[null]}`, 400, "points[0] is null"},
		{"upper-case key", `{"X":[1,2],"y":[1,2]}`, 400, `invalid JSON body: key "X" must be spelled "x"`},
		{"folded key", `{"poinTſ":[1]}`, 400, `invalid JSON body: key "poinTſ" must be spelled "points"`},
		{"array twice", `{"y":[1,2],"y":[3,4]}`, 400, `invalid JSON body: "y" given twice`},
		{"over the element limit", `{"x":[1,2,3,4,5]}`, 413, "x has more than 4 elements"},
		{"trailing data", `{"x":[1,2]} {}`, 400, "invalid JSON body: trailing data after object"},
		{"trailing brace", `{"x":[1,2]}}`, 400, "invalid JSON body: trailing data after object"},
		{"out of range", `{"x":[1,1e400]}`, 400, "x[1] is out of range"},
		{"not a number", `{"x":[1,.5]}`, 400, "x[1] is not a number"},
		{"not an array", `{"x":"1,2"}`, 400, "invalid JSON body: x must be an array of numbers"},
		{"unknown field", `{"x":[1],"z":1}`, 400, `invalid JSON body: json: unknown field "z"`},
		{"not an object", `[1,2]`, 400, "invalid JSON body: want an object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req serve.FitPredictRequest
			status, err := decode([]byte(tc.body), 1<<10, 4, &req)
			if err == nil {
				t.Fatalf("accepted, want %d %q", tc.status, tc.msg)
			}
			if status != tc.status || err.Error() != tc.msg {
				t.Fatalf("got %d %q, want %d %q", status, err, tc.status, tc.msg)
			}
		})
	}
}

// TestDecodeBodyLimit refuses a body one byte over the limit with 413,
// whether its length is declared or not, and accepts one at the limit.
func TestDecodeBodyLimit(t *testing.T) {
	body := []byte(`{"x":[1,2]}`)
	limit := int64(len(body))
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		status  int
	}{
		{"at the limit", body, false, 0},
		{"at the limit, chunked", body, true, 0},
		{"one byte over", append(body, ' '), false, 413},
		{"one byte over, chunked", append(body, ' '), true, 413},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body))
			if tc.chunked {
				r.ContentLength = -1
			}
			var req serve.FitPredictRequest
			status, err := serve.DecodeRequest(httptest.NewRecorder(), r, limit, 10, &req)
			if status != tc.status {
				t.Fatalf("status %d (%v), want %d", status, err, tc.status)
			}
		})
	}
}

// heapAllocs reads the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// repeatReader streams head and then pad bytes of filler without
// holding them in memory.
type repeatReader struct {
	head []byte
	pad  int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.head) > 0 {
		n := copy(p, r.head)
		r.head = r.head[n:]
		return n, nil
	}
	if r.pad == 0 {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), r.pad))
	for i := range p[:n] {
		p[i] = ' '
	}
	r.pad -= int64(n)
	return n, nil
}

// TestOverLimitBodyBoundedHeap sends a valid fit-predict body one byte
// over kernregd's limit, and a 64 MiB one, with and without a declared
// length: each is refused with 413 after allocating a small multiple of
// the limit at most, however long the body. A declared length over the
// limit is refused before a byte is read; an undeclared one grows the
// buffer geometrically until the limit stops the read.
func TestOverLimitBodyBoundedHeap(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, MaxN: 1000})
	h := srv.Handler()
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i) / 7
	}
	head, err := json.Marshal(serve.FitPredictRequest{X: x, Y: x, Points: x[:10]})
	if err != nil {
		t.Fatal(err)
	}
	// The fit-predict limit at MaxN = 1000: 64 KiB + 32 bytes for each
	// of 3000 elements.
	const limit = 64<<10 + 32*3000
	for _, tc := range []struct {
		name    string
		size    int64
		chunked bool
	}{
		{"one byte over", limit + 1, false},
		{"one byte over, chunked", limit + 1, true},
		{"64 MiB", 64 << 20, false},
		{"64 MiB, chunked", 64 << 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/fit-predict",
				&repeatReader{head: head, pad: tc.size - int64(len(head))})
			r.ContentLength = tc.size
			if tc.chunked {
				r.ContentLength = -1
			}
			w := httptest.NewRecorder()
			runtime.GC()
			before := heapAllocs()
			h.ServeHTTP(w, r)
			grew := heapAllocs() - before
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d (%s), want 413", w.Code, w.Body)
			}
			if grew > 8*limit {
				t.Fatalf("refusing the body allocated %d bytes, want at most %d", grew, 8*limit)
			}
		})
	}
}

// reusableBody is a request body that can be rewound, so a decode can
// be repeated without allocating a new request.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// TestDecodeAllocs bounds a pooled n = 10,000 decode: the x and y
// slices plus a constant, with no allocation per element and none for
// the body once the pool holds a buffer. The constant is the body's
// MaxBytesReader and encoding/json decoding the spliced "method".
func TestDecodeAllocs(t *testing.T) {
	body := selectBody(10_000)
	rb := &reusableBody{}
	r := &http.Request{Body: rb, ContentLength: int64(len(body))}
	w := httptest.NewRecorder()
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	var req serve.SelectRequest
	allocs := testing.AllocsPerRun(50, func() {
		rb.Reset(body)
		if _, err := serve.DecodeRequest(w, r, 1<<24, 10_000, &req); err != nil {
			t.Fatal(err)
		}
	})
	if len(req.X) != 10_000 || len(req.Y) != 10_000 {
		t.Fatalf("decoded n = %d, %d", len(req.X), len(req.Y))
	}
	const want = 2 + 12
	if allocs > want {
		t.Fatalf("%.1f allocations per decode, want at most %d (x, y and a constant)", allocs, want)
	}
}

// selectBody is a /v1/select body of n observations drawn like the
// paper's data: x ~ U[0,1], y = 0.5x + 10x² + u, u ~ U[0, 0.5].
func selectBody(n int) []byte {
	x, y := dgp(n)
	b, err := json.Marshal(serve.SelectRequest{X: x, Y: y, Method: "bagged"})
	if err != nil {
		panic(err)
	}
	return b
}

func dgp(n int) (x, y []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = 0.5*x[i] + 10*x[i]*x[i] + 0.5*rng.Float64()
	}
	return x, y
}

// BenchmarkDecodeRequest decodes a /v1/fit-predict body of n
// observations and 20 points, the shape of the bulk-ingest benchmark's
// requests, with encoding/json as kernregd used to and with the
// request decoder.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000} {
		x, y := dgp(n)
		points := make([]float64, 20)
		for i := range points {
			points[i] = (float64(i) + 0.5) / 20
		}
		body, err := json.Marshal(serve.FitPredictRequest{X: x, Y: y, Bandwidth: 0.05, Points: points})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/stdlib", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req serve.FitPredictRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil || dec.More() {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/decoder", n), func(b *testing.B) {
			rb := &reusableBody{}
			r := &http.Request{Body: rb, ContentLength: int64(len(body))}
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req serve.FitPredictRequest
				rb.Reset(body)
				if _, err := serve.DecodeRequest(w, r, 1<<26, n, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

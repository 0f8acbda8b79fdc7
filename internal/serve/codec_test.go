package serve

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
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

// reusedWriter is an http.ResponseWriter reused across requests, so that an
// allocation count covers the handler alone.
type reusedWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *reusedWriter) Header() http.Header { return w.hdr }

func (w *reusedWriter) WriteHeader(code int) { w.status = code }

func (w *reusedWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// TestCanonicalPredictionAllocs bounds the inline /estimate and /bound
// path at two allocations per request: the interferer slice (never pooled:
// a request abandoned on ctx.Done may still be read by a flusher) and the
// Content-Type header value.
func TestCanonicalPredictionAllocs(t *testing.T) {
	pred, _ := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	h := NewHandler(s)
	for _, tc := range []struct{ path, body string }{
		{"/estimate", `{"workload":3,"platform":5}`},
		{"/estimate", `{"workload":3,"platform":5,"interferers":[7]}`},
		{"/estimate", `{"workload":3,"platform":5,"interferers":[7,1]}`},
		{"/estimate", `{"workload":3,"platform":5,"interferers":[7,1,20]}`},
		{"/bound", `{"workload":2,"platform":9,"eps":0.1}`},
		{"/bound", `{"workload":2,"platform":9,"interferers":[4],"eps":0.1}`},
		{"/bound", `{"workload":2,"platform":9,"interferers":[4,6],"eps":0.1}`},
		{"/bound", `{"workload":2,"platform":9,"interferers":[4,6,11],"eps":0.1}`},
	} {
		raw := []byte(tc.body)
		body := bytes.NewReader(nil)
		r := httptest.NewRequest(http.MethodPost, tc.path, body)
		w := &reusedWriter{hdr: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			body.Reset(raw)
			clear(w.hdr)
			h.ServeHTTP(w, r)
		})
		if w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.path, tc.body, w.status, w.body)
		}
		if allocs > 2 {
			t.Errorf("%s %s: %.1f allocations per request, want at most 2", tc.path, tc.body, allocs)
		}
	}
}

// corpus is one request type's fuzz seeds: bodies in the canonical subset,
// which the reflection-free parser must accept, and edge cases just outside
// it, which it must leave to encoding/json.
type corpus struct{ canonical, edges []string }

func (c corpus) seed(f *testing.F) {
	for _, b := range append(c.canonical, c.edges...) {
		f.Add([]byte(b))
	}
}

var (
	estimateCorpus = corpus{
		canonical: []string{
			`{"workload":3,"platform":5}`,
			`{"workload":3,"platform":5,"interferers":[7,1,20]}`,
			`{"workload":2,"platform":9,"interferers":[4],"eps":0.1}`,
			`{"interferers":[]}`,
			`{}`,
			`{"workload":-0,"eps":-0}`,
			`{"workload":123456789012345678,"platform":-123456789012345678}`,
			`{"eps":1e-400,"workload":-1}`,
			" \t\n{ \"workload\" : 1 ,\r\"interferers\" : [ 1 , 2 ] , \"eps\" : 5E-1 } \r\n",
		},
		edges: []string{
			`{"Workload":3,"platform":5}`,
			`{"workload":3,"platform":5,"extra":[1,{"a":null}]}`,
			`{"workload":3,"workload":4}`,
			`{"interferers":[1,2],"interferers":[3]}`,
			`null`,
			`{"workload":null,"interferers":null}`,
			`{"workload":1.0}`,
			`{"workload":1e2}`,
			`{"workload":01}`,
			`{"workload":1234567890123456789}`,
			`{"workload":12345678901234567890}`,
			`{"eps":1e400}`,
			`{"workload":1}xyz`,
			"\xef\xbb\xbf{\"workload\":1}",
			`{"work\u006coad":1}`,
			`{"workload":1,}`,
			`{"interferers":[1,]}`,
			`{"eps":1.}`,
			`{"eps":-}`,
		},
	}
	placeCorpus = corpus{
		canonical: []string{
			`{"jobs":[{"workload":1,"deadline":0.5},{"workload":2,"deadline":3}]}`,
			`{"jobs":[]}`,
			`{"jobs":[{}]}`,
			`{"jobs":[{"workload":1,"deadline":-0}]}`,
			" {\"jobs\" :[ {\"deadline\":\t2 ,\"workload\":1} ]}\n",
		},
		edges: []string{
			`{"jobs":null}`,
			`{"Jobs":[{"workload":1,"deadline":2}]}`,
			`{"jobs":[{"workload":1,"deadline":2,"Deadline":3}]}`,
			`{"jobs":[{"workload":1,"workload":2}]}`,
			`{"jobs":[{"workload":1,"deadline":2}],"jobs":[]}`,
			`{"jobs":[{"workload":1.5,"deadline":2}]}`,
			`{"jobs":[{"workload":1,"deadline":1e400}]}`,
			`{"jobs":[{"workload":1,"deadline":2}]}xyz`,
			`{"jobs":[{"work\u006coad":1,"deadline":2}]}`,
		},
	}
	completeCorpus = corpus{
		canonical: []string{
			`{"ids":[1,2,3]}`,
			`{"ids":[1],"missed":[1]}`,
			`{"ids":[],"missed":[]}`,
			`{"ids":[1234567890123456789]}`,
		},
		edges: []string{
			`{"ids":[-0]}`,
			`{"ids":[-1]}`,
			`{"ids":[18446744073709551615]}`,
			`{"ids":[18446744073709551616]}`,
			`{"ids":[1e2]}`,
			`{"ids":[1],"IDS":[2]}`,
			`{"ids":null,"missed":[1]}`,
			`{"ids":[1]}xyz`,
			`{"i\u0064s":[1]}`,
		},
	}
)

// checkDecode is the differential property of one request decoder: a body
// parse accepts decodes to the same value under encoding/json, nil versus
// empty slices and the sign of zero included, and decode (parse or its
// fallback) returns encoding/json's value and error for every body.
func checkDecode[T any](t *testing.T, b []byte, parse func([]byte) (T, bool)) {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if got, ok := parse(b); ok {
		if wantErr != nil {
			t.Fatalf("parse accepted %q; encoding/json: %v", b, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse %q = %#v; encoding/json %#v", b, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("parse %q re-encodes as %s; encoding/json's value as %s", b, gj, wj)
		}
	}
	got, err := decode(&codec{}, nil, io.NopCloser(bytes.NewReader(b)), parse)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q = %#v, %v; encoding/json %#v, %v", b, got, err, want, wantErr)
	}
}

func FuzzDecodeEstimateRequest(f *testing.F) {
	estimateCorpus.seed(f)
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b, parseEstimate) })
}

func FuzzDecodePlaceRequest(f *testing.F) {
	placeCorpus.seed(f)
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b, parsePlace) })
}

func FuzzDecodeCompleteRequest(f *testing.F) {
	completeCorpus.seed(f)
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b, parseComplete) })
}

// TestParseCanonicalBodies pins the boundary of the canonical subset: the
// parser takes every canonical seed and declines every edge case, so a
// parser that declined everything, and passed the differential property
// vacuously, fails here.
func TestParseCanonicalBodies(t *testing.T) {
	for _, c := range []struct {
		corpus
		parse func([]byte) bool
	}{
		{estimateCorpus, func(b []byte) bool { _, ok := parseEstimate(b); return ok }},
		{placeCorpus, func(b []byte) bool { _, ok := parsePlace(b); return ok }},
		{completeCorpus, func(b []byte) bool { _, ok := parseComplete(b); return ok }},
	} {
		for _, b := range c.canonical {
			if !c.parse([]byte(b)) {
				t.Errorf("declined canonical %q", b)
			}
		}
		for _, b := range c.edges {
			if c.parse([]byte(b)) {
				t.Errorf("accepted non-canonical %q", b)
			}
		}
	}
}

// escapes reports whether json.Marshal changes s beyond quoting it.
func escapes(s string) bool {
	b, _ := json.Marshal(s)
	return string(b) != `"`+s+`"`
}

// checkAppend requires appendV to decline exactly where json.Marshal fails
// or escapes a string, and otherwise to match json.Marshal plus "\n" byte
// for byte.
func checkAppend[T any](t *testing.T, v T, escaped bool, appendV func([]byte, T) ([]byte, bool)) {
	t.Helper()
	want, err := json.Marshal(v)
	got, ok := appendV([]byte("prefix"), v)
	switch {
	case err != nil || escaped:
		if ok {
			t.Fatalf("appended %#v (json.Marshal: %v, escapes a string: %v)", v, err, escaped)
		}
	case !ok:
		t.Fatalf("declined %#v, which json.Marshal encodes as %s", v, want)
	case string(got) != "prefix"+string(want)+"\n":
		t.Fatalf("appended %q, json.Marshal %q", got, want)
	}
}

// TestAppendersMatchMarshal is the encoder property: over random replies,
// with the float, integer and string values at the edges of encoding/json's
// formatting, every appender is byte-identical to json.Marshal plus "\n".
func TestAppendersMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e-7, -1e-7, 1e-6, 1e21, -1e21, 9.999999999999999e20,
		123456789.125, 0.1, 5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e-320, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	randFloat := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return floats[rng.Intn(len(floats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	randUint := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	randInt := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MinInt64 >> rng.Intn(2)
		}
		return int(rng.Int63()>>rng.Intn(63)) - rng.Intn(2)*(1<<40)
	}
	reasons := []string{
		"", sched.ReasonAdmission, sched.ReasonNoHealthy, sched.ReasonCapacity,
		sched.ReasonInfeasible, sched.ReasonConflict,
	}
	pieces := []string{"a", "Z-9", " ", "é", "日本", "\u2028", "\u2029", "<", ">", "&", `"`, `\`, "\n", "\x00", "\x1f", "\x7f", "\xff", "\xc3", "\ufffd", "/"}
	randReason := func() string {
		if rng.Intn(2) == 0 {
			return reasons[rng.Intn(len(reasons))]
		}
		s := ""
		for n := rng.Intn(4); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		return s
	}
	randUints := func() []uint64 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []uint64{}
		}
		xs := make([]uint64, 1+rng.Intn(4))
		for i := range xs {
			xs[i] = randUint()
		}
		return xs
	}
	for _, r := range reasons {
		if escapes(r) {
			t.Fatalf("reason %q needs escaping", r)
		}
	}
	for i := 0; i < 20000; i++ {
		checkAppend(t, PredictionResponse{Seconds: randFloat(), Version: randUint(), Infeasible: rng.Intn(2) == 0}, false, appendPrediction)
		checkAppend(t, CompleteResponse{Completed: randInt(), Unknown: randUints(), Stale: randUints()}, false, appendComplete)

		pr := PlaceResponse{Placed: randInt(), Version: randUint()}
		escaped := false
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			pr.Assignments = make([]AssignmentJSON, n)
		}
		for j := range pr.Assignments {
			a := AssignmentJSON{
				ID: randUint(), Workload: randInt(), Deadline: randFloat(), Platform: randInt(),
				Placed: rng.Intn(2) == 0, Rejected: rng.Intn(2) == 0, Reason: randReason(),
			}
			if rng.Intn(2) == 0 {
				a.Budget = randFloat()
			}
			if rng.Intn(5) > 0 {
				// Keep most waves finite, or nearly every one declines.
				for math.IsNaN(a.Deadline) || math.IsInf(a.Deadline, 0) {
					a.Deadline = rng.Float64()
				}
				for math.IsNaN(a.Budget) || math.IsInf(a.Budget, 0) {
					a.Budget = rng.Float64()
				}
			}
			escaped = escaped || escapes(a.Reason)
			pr.Assignments[j] = a
		}
		checkAppend(t, pr, escaped, appendPlace)
	}
}

// failingBody yields its bytes, then err.
type failingBody struct {
	b   []byte
	err error
}

func (r *failingBody) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestNonCanonicalBodiesMatchEncodingJSON posts bodies outside the
// canonical subset to the four codec endpoints and requires each reply to
// be the one encoding/json's decode of the same byte stream implies: the
// 400 decode error when it fails, else the reply to the canonical
// re-encoding, served by a twin server that saw the same traffic.
func TestNonCanonicalBodiesMatchEncodingJSON(t *testing.T) {
	pred, _ := testPredictor(t)
	handler := func() http.Handler {
		s := New(pred, Config{})
		t.Cleanup(s.Close)
		if err := s.EnablePlacement(PlacementConfig{MaxColocation: 2}); err != nil {
			t.Fatal(err)
		}
		return NewHandler(s)
	}
	got, twin := handler(), handler()
	serve := func(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, body))
		return w
	}
	pad := strings.Repeat(" ", maxPooledBody)
	readErr := errors.New("connection reset mid-body")
	type body struct {
		path string
		raw  string
		err  error // returned by the body's Read after raw
	}
	bodies := []body{
		{"/estimate", `{"workload":1,"platform":2}xyz`, nil},
		{"/estimate", `{"Workload":1,"platform":2,"interferers":[3]}`, nil},
		{"/estimate", `{"workload":1,"platform":2,"extra":[1,{"a":null}]}`, nil},
		{"/estimate", `{"workload":1,"workload":4,"platform":2}`, nil},
		{"/estimate", `{"interferers":[1,2],"interferers":[3],"platform":1}`, nil},
		{"/estimate", `null`, nil},
		{"/estimate", `{"workload":null,"interferers":null}`, nil},
		{"/estimate", `{"workload":1.0}`, nil},
		{"/estimate", `{"workload":1e2}`, nil},
		{"/estimate", `{"workload":01}`, nil},
		{"/estimate", `{"workload":1234567890123456789}`, nil},
		{"/estimate", `{"workload":12345678901234567890}`, nil},
		{"/estimate", "\xef\xbb\xbf{\"workload\":1}", nil},
		{"/estimate", `{"work\u006coad":1,"platform":2}`, nil},
		{"/estimate", `{"workload":2,"platform":3}`, nil},
		{"/estimate", `{"workload":1,` + pad + `"platform":2}`, nil},
		{"/estimate", `{"workload":1,"plat`, readErr},
		{"/estimate", `{"workload":1,"platform":2}`, readErr},
		{"/bound", `{"workload":1,"platform":2,"eps":0.1,"EPS":0.2}`, nil},
		{"/bound", `{"workload":1,"platform":2,"eps":1e400}`, nil},
		{"/bound", `{"workload":1,"platform":2,"eps":0.1}  trailing`, nil},
		{"/bound", `{"workload":1,"platform":2,"eps":0.1` + pad + `}`, nil},
		{"/bound", `{"workload":1,"platform":2,"eps":0.1}`, readErr},
		{"/bound", `{"workload":1,"platform":2,"ep`, readErr},
		{"/place", `{"jobs":[{"workload":1,"deadline":5,"Deadline":50}]}`, nil},
		{"/place", `{"jobs":[{"workload":2,"deadline":50}],"x":1}`, nil},
		{"/place", `{"jobs":[{"workload":3,"deadline":50}]}xyz`, nil},
		{"/place", `{"jobs":[{"workload":4,"deadline":50}` + pad + `]}`, nil},
		{"/place", `{"jobs":[{"workload":5,"deadline":50}]}`, readErr},
		{"/place", `{"jobs":[{"workload":6,"dead`, readErr},
		{"/place", `{"jobs":null}`, nil},
		{"/place", `{"jobs":[{"workload":1.5,"deadline":2}]}`, nil},
		{"/place", `{"jobs":[{"workload":1,"deadline":1e400}]}`, nil},
		{"/complete", `{"ids":[1],"IDS":[2]}`, nil},
		{"/complete", `{"ids":[3],"missed":[3],"junk":"x"}`, nil},
		{"/complete", `{"ids":[4]}xyz`, nil},
		{"/complete", `{"ids":[5` + pad + `]}`, nil},
		{"/complete", `{"ids":[1]}`, readErr},
		{"/complete", `{"ids":[`, readErr},
		{"/complete", `{"ids":[-1]}`, nil},
		{"/complete", `{"ids":[1e2]}`, nil},
		{"/complete", `{"ids":[18446744073709551615]}`, nil},
		{"/complete", `{"ids":[18446744073709551616]}`, nil},
	}
	for _, b := range bodies {
		stream := func() io.Reader {
			if b.err != nil {
				return &failingBody{[]byte(b.raw), b.err}
			}
			return strings.NewReader(b.raw)
		}
		name := fmt.Sprintf("%s %.60q (read error %v)", b.path, b.raw, b.err)
		var v any
		switch b.path {
		case "/estimate", "/bound":
			v = new(EstimateRequest)
		case "/place":
			v = new(PlaceRequest)
		default:
			v = new(CompleteRequest)
		}
		var want *httptest.ResponseRecorder
		if err := json.NewDecoder(stream()).Decode(v); err != nil {
			want = httptest.NewRecorder()
			writeError(want, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		} else {
			canonical, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want = serve(twin, b.path, bytes.NewReader(canonical))
		}
		w := serve(got, b.path, stream())
		if w.Code != want.Code || w.Body.String() != want.Body.String() ||
			w.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: got %d %q, want %d %q", name, w.Code, w.Body, want.Code, want.Body)
		}
		if b.raw == `{"workload":1,"platform":2}xyz` && w.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", name, w.Code)
		}
	}
}

// TestCodecConcurrentRequests shares the pooled codec buffers among
// concurrent canonical and non-canonical requests: every reply must be
// byte-identical to the one its body gets alone.
func TestCodecConcurrentRequests(t *testing.T) {
	s := New(newFakeBackend(), Config{})
	defer s.Close()
	h := NewHandler(s)
	post := func(path, body string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return fmt.Sprint(w.Code, " ", w.Body)
	}
	type call struct{ path, body, want string }
	var calls []call
	for i := 0; i < 64; i++ {
		w, p := i%100, i%10
		for _, c := range []call{
			{path: "/estimate", body: fmt.Sprintf(`{"workload":%d,"platform":%d,"interferers":[%d,%d]}`, w, p, i%7, i%5)},
			{path: "/estimate", body: fmt.Sprintf(`{"Workload":%d,"platform":%d}xyz`, w, p)},
			{path: "/bound", body: fmt.Sprintf(`{"workload":%d,"platform":%d,"eps":0.%d}`, w, p, 1+i%9)},
			{path: "/bound", body: fmt.Sprintf(`{"workload":%d,"platform":%d,"eps":1e400}`, w, p)},
		} {
			c.want = post(c.path, c.body)
			calls = append(calls, c)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range calls {
				c := calls[(i*7+g*13)%len(calls)]
				if got := post(c.path, c.body); got != c.want {
					t.Errorf("%s %s: got %q, alone %q", c.path, c.body, got, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

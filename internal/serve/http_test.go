package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pitot "repro"
)

// trained lazily fits one small bounds-enabled predictor shared by the
// end-to-end tests (training dominates the package's test time).
var trained struct {
	once sync.Once
	ds   *pitot.Dataset
	pred *pitot.Predictor
	err  error
}

func testPredictor(tb testing.TB) (*pitot.Predictor, *pitot.Dataset) {
	tb.Helper()
	trained.once.Do(func() {
		trained.ds = pitot.GenerateDataset(pitot.DatasetConfig{
			Seed: 11, NumWorkloads: 24, MaxDevices: 4, SetsPerDegree: 10,
		})
		cfg := pitot.DefaultModelConfig(1)
		cfg.Hidden = 32
		cfg.EmbeddingDim = 16
		cfg.Steps = 400
		cfg.BatchPerDegree = 128
		cfg.EvalEvery = 100
		trained.pred, trained.err = pitot.Train(trained.ds, pitot.Options{
			Seed: 1, Model: &cfg, EnableBounds: true,
		})
	})
	if trained.err != nil {
		tb.Fatal(trained.err)
	}
	return trained.pred, trained.ds
}

// ownPredictor returns a private copy of the shared trained predictor,
// made with Export and LoadPredictor and no retraining, for tests that
// Observe: the shared one then stays at version 0 however often the
// package's tests run in one process.
func ownPredictor(tb testing.TB) (*pitot.Predictor, *pitot.Dataset) {
	tb.Helper()
	shared, _ := testPredictor(tb)
	var data, mean, quant bytes.Buffer
	if err := shared.Export(&data, &mean, &quant); err != nil {
		tb.Fatal(err)
	}
	ds, err := pitot.ReadDataset(&data)
	if err != nil {
		tb.Fatal(err)
	}
	pred, err := pitot.LoadPredictor(ds, &mean, &quant)
	if err != nil {
		tb.Fatal(err)
	}
	return pred, ds
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	// Every endpoint answers JSON on every status (error replies are
	// {"error": ...}), so decode whenever the caller wants a payload —
	// partial-success replies like /complete's 409 carry real fields.
	if out != nil && raw.Len() > 0 {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

// TestHTTPEndpoints drives all four endpoints of the daemon end to end
// against a real trained predictor: /estimate and /bound agree with the
// direct predictor, /observe publishes a new snapshot that
// subsequent predictions and /healthz reflect, and malformed requests are
// rejected with client errors.
func TestHTTPEndpoints(t *testing.T) {
	pred, ds := ownPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	client := ts.Client()

	// --- /estimate: concurrent singles must match the direct predictor.
	rng := rand.New(rand.NewSource(5))
	type q struct {
		req  EstimateRequest
		want float64
	}
	var qs []q
	for i := 0; i < 40; i++ {
		w := rng.Intn(ds.NumWorkloads())
		p := rng.Intn(ds.NumPlatforms())
		ks := []int{rng.Intn(ds.NumWorkloads()), rng.Intn(ds.NumWorkloads())}
		qs = append(qs, q{
			req:  EstimateRequest{Workload: w, Platform: p, Interferers: ks},
			want: pred.Estimate(w, p, ks),
		})
	}
	var wg sync.WaitGroup
	for _, qq := range qs {
		qq := qq
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got PredictionResponse
			status, raw := postJSON(t, client, ts.URL+"/estimate", qq.req, &got)
			if status != http.StatusOK {
				t.Errorf("/estimate status %d: %s", status, raw)
				return
			}
			if math.Abs(got.Seconds-qq.want) > 1e-9*qq.want {
				t.Errorf("/estimate %+v: %v, direct %v", qq.req, got.Seconds, qq.want)
			}
		}()
	}
	wg.Wait()

	// --- /bound agrees with the direct predictor at the same eps.
	wantBound, err := pred.Bound(1, 1, []int{2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var bound PredictionResponse
	status, raw := postJSON(t, client, ts.URL+"/bound",
		EstimateRequest{Workload: 1, Platform: 1, Interferers: []int{2}, Eps: 0.1}, &bound)
	if status != http.StatusOK {
		t.Fatalf("/bound status %d: %s", status, raw)
	}
	if math.Abs(bound.Seconds-wantBound) > 1e-9*wantBound {
		t.Fatalf("/bound %v, direct %v", bound.Seconds, wantBound)
	}

	// --- /bound at an eps the calibration set cannot support: +Inf is a
	// documented predictor outcome; the wire carries it as infeasible, not
	// as a 200 with an unencodable body.
	var inf PredictionResponse
	status, raw = postJSON(t, client, ts.URL+"/bound",
		EstimateRequest{Workload: 1, Platform: 1, Eps: 1e-6}, &inf)
	if status != http.StatusOK {
		t.Fatalf("/bound tiny eps status %d: %s", status, raw)
	}
	if !inf.Infeasible || inf.Seconds != 0 {
		t.Fatalf("/bound tiny eps response %+v, want infeasible", inf)
	}

	// --- /healthz before observe.
	var health HealthResponse
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || health.Version != 0 || !health.Bounds ||
		health.Workloads != ds.NumWorkloads() || health.Platforms != ds.NumPlatforms() {
		t.Fatalf("healthz %+v", health)
	}
	if health.Metrics.Requests < int64(len(qs)) {
		t.Fatalf("healthz metrics %+v after %d requests", health.Metrics, len(qs))
	}

	// --- /observe publishes snapshot v1; estimates keep working.
	before := health.Observations
	var obsResp ObserveResponse
	obs := ObserveRequest{Observations: []pitot.Observation{
		{Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 2},
		{Workload: 1, Platform: 0, Seconds: pred.Estimate(1, 0, nil) * 2},
	}}
	status, raw = postJSON(t, client, ts.URL+"/observe", obs, &obsResp)
	if status != http.StatusOK {
		t.Fatalf("/observe status %d: %s", status, raw)
	}
	if obsResp.Accepted != 2 || obsResp.Version != 1 {
		t.Fatalf("/observe response %+v", obsResp)
	}
	var after PredictionResponse
	status, raw = postJSON(t, client, ts.URL+"/estimate", EstimateRequest{Workload: 0, Platform: 0}, &after)
	if status != http.StatusOK || !(after.Seconds > 0) {
		t.Fatalf("post-observe estimate status %d %s %+v", status, raw, after)
	}
	if after.Version != 1 {
		t.Fatalf("post-observe estimate version %d", after.Version)
	}
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = HealthResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Version != 1 || health.Observations != before+2 {
		t.Fatalf("healthz after observe %+v", health)
	}

	// --- error paths.
	for _, tc := range []struct {
		name   string
		url    string
		body   any
		status int
	}{
		{"estimate workload out of range", "/estimate", EstimateRequest{Workload: 10_000}, http.StatusBadRequest},
		{"estimate negative platform", "/estimate", EstimateRequest{Platform: -1}, http.StatusBadRequest},
		{"estimate interferer out of range", "/estimate", EstimateRequest{Interferers: []int{-3}}, http.StatusBadRequest},
		{"bound eps zero", "/bound", EstimateRequest{Workload: 1}, http.StatusBadRequest},
		{"bound eps one", "/bound", EstimateRequest{Workload: 1, Eps: 1}, http.StatusBadRequest},
		{"observe empty", "/observe", ObserveRequest{}, http.StatusBadRequest},
		{"observe invalid entity", "/observe", ObserveRequest{Observations: []pitot.Observation{{Workload: 9999, Platform: 0, Seconds: 1}}}, http.StatusBadRequest},
		{"observe non-positive runtime", "/observe", ObserveRequest{Observations: []pitot.Observation{{Workload: 0, Platform: 0, Seconds: -1}}}, http.StatusBadRequest},
	} {
		if status, raw := postJSON(t, client, ts.URL+tc.url, tc.body, nil); status != tc.status {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.status, raw)
		}
	}
	// Malformed JSON body.
	resp, err = client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", resp.StatusCode)
	}
	// Wrong methods.
	if resp, err = client.Get(ts.URL + "/estimate"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /estimate status %d", resp.StatusCode)
		}
	}
	if resp, err = client.Post(ts.URL+"/healthz", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /healthz status %d", resp.StatusCode)
		}
	}
}

// A lone request through HTTP is served promptly and matches the direct
// predictor.
func TestHTTPLoneRequestLatency(t *testing.T) {
	pred, _ := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var got PredictionResponse
	start := time.Now()
	status, raw := postJSON(t, ts.Client(), ts.URL+"/estimate", EstimateRequest{Workload: 2, Platform: 1}, &got)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("lone HTTP request took %v", elapsed)
	}
	want := pred.Estimate(2, 1, nil)
	if math.Abs(got.Seconds-want) > 1e-9*want {
		t.Fatalf("estimate %v, direct %v", got.Seconds, want)
	}
}

// TestHTTPConcurrentObserveAndEstimate hammers /estimate while /observe
// retrains, end to end: every reply must be a valid prediction and the
// reported versions must be non-decreasing per client.
func TestHTTPConcurrentObserveAndEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains during serving")
	}
	pred, ds := ownPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	client := ts.Client()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var got PredictionResponse
				req := EstimateRequest{Workload: (r + i) % ds.NumWorkloads(), Platform: i % ds.NumPlatforms()}
				status, raw := postJSON(t, client, ts.URL+"/estimate", req, &got)
				if status != http.StatusOK {
					t.Errorf("status %d: %s", status, raw)
					return
				}
				if !(got.Seconds > 0) || got.Version < last {
					t.Errorf("reply %+v after version %d", got, last)
					return
				}
				last = got.Version
			}
		}(r)
	}
	base := pred.Version()
	obs := ObserveRequest{Observations: []pitot.Observation{
		{Workload: 3, Platform: 1, Seconds: pred.Estimate(3, 1, nil) * 1.5},
	}}
	var obsResp ObserveResponse
	status, raw := postJSON(t, client, ts.URL+"/observe", obs, &obsResp)
	close(stop)
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("/observe status %d: %s", status, raw)
	}
	if obsResp.Version != base+1 {
		t.Fatalf("observe version %d, want %d", obsResp.Version, base+1)
	}
}

// TestOversizedBodiesRefused posts one body per POST endpoint that runs
// past maxRequestBody before its JSON value ends, over a loopback server:
// each gets 413 without reaching its handler's work, and the same
// endpoint then answers a well-formed request.
func TestOversizedBodiesRefused(t *testing.T) {
	pred, _ := ownPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{MaxColocation: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	client := ts.Client()
	pad := strings.Repeat(" ", maxRequestBody)
	for _, c := range []struct {
		path, oversized, next string
	}{
		{"/estimate", `{"workload":1,` + pad + `"platform":2}`, `{"workload":1,"platform":2}`},
		{"/bound", `{"workload":1,"platform":2,` + pad + `"eps":0.1}`, `{"workload":1,"platform":2,"eps":0.1}`},
		{"/place", `{"jobs":[{"workload":1,"deadline":1e9}` + pad + `]}`, `{"jobs":[{"workload":1,"deadline":1e9}]}`},
		{"/complete", `{"ids":[1` + pad + `]}`, `{"ids":[1]}`},
		{"/observe", `{"observations":[` + pad + `]}`, `{"observations":[{"w":1,"p":2,"t":0.05}]}`},
		{"/fail", `{"platform":1` + pad + `}`, `{"platform":1}`},
		{"/recover", `{"platform":1` + pad + `}`, `{"platform":1}`},
	} {
		post := func(body string) (int, string) {
			resp, err := client.Post(ts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", c.path, err)
			}
			defer resp.Body.Close()
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			return resp.StatusCode, raw.String()
		}
		if status, raw := post(c.oversized); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d (%s), want 413", c.path, len(c.oversized), status, raw)
		}
		if status, raw := post(c.next); status != http.StatusOK {
			t.Errorf("%s after the oversized body: status %d (%s), want 200", c.path, status, raw)
		}
	}
}

package serve

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	pitot "repro"
	"repro/internal/sched"
)

var errTest = errors.New("test: bounds unavailable")

// TestHTTPPlaceEndToEnd drives the orchestration surface over HTTP against
// a real trained predictor: a wave placed through /place lands on
// platforms whose bound respects each deadline, /complete frees the slots
// (verified by re-placing), admission and infeasibility are reported
// per-job, and /metrics exposes the lifecycle counters in Prometheus
// plain-text format.
func TestHTTPPlaceEndToEnd(t *testing.T) {
	pred, ds := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "bound", Eps: 0.1, MaxColocation: 2, Strategy: "least-loaded",
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	client := ts.Client()

	// A wave of feasible jobs: deadlines well above the 0.1-bound.
	var jobs []JobSpec
	for w := 0; w < 6; w++ {
		b, err := pred.Bound(w, w%ds.NumPlatforms(), nil, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, JobSpec{Workload: w, Deadline: b * 3})
	}
	var placeResp PlaceResponse
	code, raw := postJSON(t, client, ts.URL+"/place", PlaceRequest{Jobs: jobs}, &placeResp)
	if code != http.StatusOK {
		t.Fatalf("/place: %d %s", code, raw)
	}
	if placeResp.Placed != len(jobs) {
		t.Fatalf("placed %d of %d: %s", placeResp.Placed, len(jobs), raw)
	}
	var ids []uint64
	for i, a := range placeResp.Assignments {
		if !a.Placed || a.Platform < 0 || a.ID == 0 {
			t.Fatalf("assignment %d not placed: %+v", i, a)
		}
		if a.Budget > a.Deadline {
			t.Fatalf("assignment %d budget %v over deadline %v", i, a.Budget, a.Deadline)
		}
		ids = append(ids, a.ID)
	}

	// An impossible deadline is unplaced (not rejected), not an error.
	var tight PlaceResponse
	code, raw = postJSON(t, client, ts.URL+"/place",
		PlaceRequest{Jobs: []JobSpec{{Workload: 0, Deadline: 1e-12}}}, &tight)
	if code != http.StatusOK || tight.Placed != 0 {
		t.Fatalf("tight-deadline place: %d %s", code, raw)
	}
	if a := tight.Assignments[0]; a.Placed || a.Rejected {
		t.Fatalf("tight-deadline assignment misreported: %+v", a)
	}

	// Complete the wave, plus one unknown ID: the bad ID flags the batch
	// with a 409 while the valid completions still take effect.
	var compResp CompleteResponse
	code, raw = postJSON(t, client, ts.URL+"/complete",
		CompleteRequest{IDs: append(append([]uint64{}, ids...), 99999)}, &compResp)
	if code != http.StatusConflict {
		t.Fatalf("/complete with unknown id: %d %s", code, raw)
	}
	if compResp.Completed != len(ids) || len(compResp.Unknown) != 1 || compResp.Unknown[0] != 99999 {
		t.Fatalf("complete response %+v", compResp)
	}
	if got := s.Placer().InFlight(); got != 0 {
		t.Fatalf("in-flight after completion: %d", got)
	}

	// Validation errors.
	if code, _ := postJSON(t, client, ts.URL+"/place",
		PlaceRequest{Jobs: []JobSpec{{Workload: -1, Deadline: 1}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative workload: %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/place",
		PlaceRequest{Jobs: []JobSpec{{Workload: 0, Deadline: 0}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero deadline: %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/place",
		PlaceRequest{Jobs: []JobSpec{{Workload: 0, Deadline: -3}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative deadline: %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/place", PlaceRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty wave: %d", code)
	}

	// Prometheus exposition carries the lifecycle counters.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"pitot_placed_total 6",
		"pitot_place_unplaced_total 1",
		"pitot_completed_total 6",
		"pitot_complete_unknown_total 1",
		"pitot_place_in_flight 0",
		"pitot_snapshot_version",
		"# TYPE pitot_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// Placement endpoints answer 503 until EnablePlacement configures them;
// the predictor-serving endpoints are unaffected.
func TestPlaceDisabled(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	code, body := postJSON(t, ts.Client(), ts.URL+"/place",
		PlaceRequest{Jobs: []JobSpec{{Workload: 0, Deadline: 1}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/place disabled: %d %s", code, body)
	}
	code, body = postJSON(t, ts.Client(), ts.URL+"/complete", CompleteRequest{IDs: []uint64{1}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/complete disabled: %d %s", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body2), "pitot_placed_total") {
		t.Fatal("placement counters exposed while disabled")
	}
}

// The backendPredictor adapter maps batch errors to +Inf per query, so a
// backend whose bounds are unavailable yields unplaced jobs rather than
// failures.
func TestBackendPredictorErrorMapsToInfeasible(t *testing.T) {
	be := newFakeBackend()
	be.boundErr = errTest
	bp := backendPredictor{be}
	qs := []pitot.Query{{Workload: 0, Platform: 0}, {Workload: 1, Platform: 2}}
	for _, mean := range [][]float64{nil, make([]float64, len(qs))} {
		out := make([]float64, len(qs))
		bp.ScoreSecondsBatch(qs, 0.1, mean, out)
		for i, v := range out {
			if !math.IsInf(v, 1) {
				t.Fatalf("bound error not mapped to +Inf: %v", out)
			}
			if mean != nil && mean[i] != be.estimate(qs[i]) {
				t.Fatalf("means lost with the bound error: %v", mean)
			}
		}
	}
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "mean"}); err != nil {
		t.Fatal(err)
	}
	as, err := s.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if !as[0].Placed() {
		t.Fatalf("mean placement through fake backend failed: %+v", as[0])
	}
}

// scorerFake is fakeBackend with the two-head ScoreSecondsBatch,
// counting its calls.
type scorerFake struct {
	*fakeBackend
	fused atomic.Int64
}

func (f *scorerFake) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	f.fused.Add(1)
	for i, q := range qs {
		meanOut[i] = f.estimate(q)
		boundOut[i] = f.estimate(q) * (1 + eps)
	}
}

// The adapter sends each scoring call to the one backend call that serves
// exactly the heads asked for: EstimateBatch for the mean, BoundBatch for
// the bound, the two-head call for both when the backend has one and the
// two batch calls otherwise.
func TestBackendPredictorRoutesHeads(t *testing.T) {
	qs := []pitot.Query{{Workload: 0, Platform: 1}, {Workload: 3, Platform: 2, Interferers: []int{1}}}
	want := func(eps float64) (mean, bound []float64) {
		for _, q := range qs {
			mean = append(mean, float64(q.Workload+1)+0.001*float64(q.Platform))
			bound = append(bound, mean[len(mean)-1]*(1+eps))
		}
		return mean, bound
	}
	for _, fused := range []bool{false, true} {
		for _, heads := range []string{"mean", "bound", "both"} {
			be := newFakeBackend()
			var backend Backend = be
			sf := &scorerFake{fakeBackend: be}
			if fused {
				backend = sf
			}
			var mean, bound []float64
			if heads != "bound" {
				mean = make([]float64, len(qs))
			}
			if heads != "mean" {
				bound = make([]float64, len(qs))
			}
			backendPredictor{backend}.ScoreSecondsBatch(qs, 0.2, mean, bound)
			wm, wb := want(0.2)
			for i := range qs {
				if (mean != nil && mean[i] != wm[i]) || (bound != nil && bound[i] != wb[i]) {
					t.Fatalf("fused %v %s: mean %v bound %v, want %v %v", fused, heads, mean, bound, wm, wb)
				}
			}
			est, bnd := len(be.estBatches), len(be.boundCalls[0.2])
			var wantEst, wantBnd, wantFused int
			switch {
			case heads == "both" && fused:
				wantFused = 1
			case heads == "both":
				wantEst, wantBnd = 1, 1
			case heads == "mean":
				wantEst = 1
			default:
				wantBnd = 1
			}
			if est != wantEst || bnd != wantBnd || int(sf.fused.Load()) != wantFused {
				t.Fatalf("fused %v %s: %d EstimateBatch, %d BoundBatch, %d fused calls; want %d, %d, %d",
					fused, heads, est, bnd, sf.fused.Load(), wantEst, wantBnd, wantFused)
			}
		}
	}
}

// The per-platform calibration staleness gauge: a platform's lag drops to
// zero when an Observe carries its measurements and grows by one with
// every snapshot published without them.
func TestCalibrationLagGauge(t *testing.T) {
	be := newFakeBackend() // 10 platforms, version bumps per Observe
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "mean"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]pitot.Observation{{Workload: 1, Platform: 2, Seconds: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]pitot.Observation{
		{Workload: 1, Platform: 5, Seconds: 1},
		{Workload: 2, Platform: 5, Interferers: []int{1}, Seconds: 2},
	}); err != nil {
		t.Fatal(err)
	}
	lag := s.PlatformCalibrationLag()
	if len(lag) != 10 {
		t.Fatalf("lag for %d platforms, want 10", len(lag))
	}
	if lag[2] != 1 || lag[5] != 0 {
		t.Fatalf("lag[2]=%d lag[5]=%d, want 1 and 0", lag[2], lag[5])
	}
	// Never-observed platforms lag the whole version history (2 Observes).
	if lag[0] != 2 || lag[9] != 2 {
		t.Fatalf("unobserved platform lag %d/%d, want 2", lag[0], lag[9])
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE pitot_platform_calibration_lag gauge",
		"pitot_platform_calibration_lag{platform=\"5\"} 0",
		"pitot_platform_calibration_lag{platform=\"2\"} 1",
		"pitot_platform_calibration_lag{platform=\"0\"} 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// fusedCounter is the real predictor counting its two-head calls.
type fusedCounter struct {
	*pitot.Predictor
	fused atomic.Int64
}

func (c *fusedCounter) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	c.fused.Add(1)
	c.Predictor.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
}

// The real predictor's two-head surface reaches the placement engine
// through the backend adapter: mixed policies score both heads in one
// call.
func TestPlacementFusedThroughBackend(t *testing.T) {
	pred, _ := testPredictor(t)
	fc := &fusedCounter{Predictor: pred}
	s := New(fc, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "mean-bound", Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	as, err := s.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e9}})
	if err != nil || !as[0].Placed() {
		t.Fatalf("fused placement failed: %v %+v", err, as)
	}
	if fc.fused.Load() == 0 {
		t.Fatal("mean-bound placement over the real predictor is not fused")
	}
	// Budget must be the conservative bound head, not the mean.
	mean := pred.Estimate(0, as[0].Platform, as[0].Interferers)
	if as[0].Budget <= mean {
		t.Fatalf("budget %v not above mean %v — fused policy served the wrong head", as[0].Budget, mean)
	}
}

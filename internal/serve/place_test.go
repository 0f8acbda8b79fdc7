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

// scorerFake is fakeBackend with the fused two-head pass, counting its
// calls.
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
// the bound, the fused pass for both when the backend has one and the two
// batch calls otherwise.
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

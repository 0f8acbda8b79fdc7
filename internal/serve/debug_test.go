package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/sched"
)

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestDebugTraceEndpoints drives the flight-recorder HTTP surface end to
// end: place a wave, complete one job, fail a platform, and check that
// /debug/trace?job= reconstructs a single job's lifecycle while
// /debug/trace/recent returns the global tail.
func TestDebugTraceEndpoints(t *testing.T) {
	pred, ds := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "bound", Eps: 0.1, MaxColocation: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var jobs []sched.Job
	for w := 0; w < 4; w++ {
		b, err := pred.Bound(w, w%ds.NumPlatforms(), nil, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, sched.Job{Workload: w, Deadline: b * 3})
	}
	as, err := s.PlaceJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var placed []sched.Assignment
	for _, a := range as {
		if a.Placed() {
			placed = append(placed, a)
		}
	}
	if len(placed) == 0 {
		t.Fatal("nothing placed")
	}
	if _, _, _, err := s.CompleteJobs([]sched.JobID{placed[0].ID}, nil); err != nil {
		t.Fatal(err)
	}

	var tr TraceResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace?job="+strconv.FormatUint(uint64(placed[0].ID), 10), &tr); code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", code)
	}
	kinds := map[string]int{}
	for _, e := range tr.Events {
		if e.Job != uint64(placed[0].ID) {
			t.Fatalf("foreign event in job trace: %+v", e)
		}
		kinds[e.Kind]++
	}
	if kinds["place"] != 1 || kinds["complete"] != 1 {
		t.Fatalf("job trace missing place/complete: %v", kinds)
	}

	var recent TraceResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace/recent", &recent); code != http.StatusOK {
		t.Fatalf("/debug/trace/recent: status %d", code)
	}
	if len(recent.Events) == 0 || recent.Total == 0 {
		t.Fatalf("recent trace empty: %+v", recent)
	}
	for i := 1; i < len(recent.Events); i++ {
		if recent.Events[i].Seq <= recent.Events[i-1].Seq {
			t.Fatalf("recent events out of order at %d", i)
		}
	}

	// Parameter validation.
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace", nil); code != http.StatusBadRequest {
		t.Fatalf("missing job param: status %d, want 400", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace?job=frog", nil); code != http.StatusBadRequest {
		t.Fatalf("bad job param: status %d, want 400", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace/recent?n=0", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n param: status %d, want 400", code)
	}
}

// TestDebugTraceShedAtEveryReplicaCount: a job no platform can serve in
// time leaves exactly one shed/infeasible event in /debug/trace, for both
// replica counts PlacementConfig accepts (0 and 1, the one engine).
func TestDebugTraceShedAtEveryReplicaCount(t *testing.T) {
	pred, _ := testPredictor(t)
	for _, replicas := range []int{0, 1} {
		s := New(pred, Config{})
		if err := s.EnablePlacement(PlacementConfig{Policy: "bound", Eps: 0.1, MaxColocation: 2, Replicas: replicas}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(s))
		as, err := s.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e-12}})
		if err != nil {
			t.Fatal(err)
		}
		if as[0].Placed() || as[0].Reason != sched.ReasonInfeasible {
			t.Fatalf("replicas %d: want an infeasible job, got %+v", replicas, as[0])
		}
		var recent TraceResponse
		if code := getJSON(t, ts.Client(), ts.URL+"/debug/trace/recent", &recent); code != http.StatusOK {
			t.Fatalf("replicas %d: /debug/trace/recent: status %d", replicas, code)
		}
		ts.Close()
		s.Close()
		sheds := 0
		for _, e := range recent.Events {
			if e.Kind != "shed" {
				continue
			}
			sheds++
			if e.Reason != sched.ReasonInfeasible {
				t.Fatalf("replicas %d: shed reason %q, want %q", replicas, e.Reason, sched.ReasonInfeasible)
			}
		}
		if sheds != 1 {
			t.Fatalf("replicas %d: %d shed events, want 1: %+v", replicas, sheds, recent.Events)
		}
	}
}

// TestDebugTraceScoreCells pins the units of a "score" event: "n" (cells
// scored) and "cached" (cells served from the score table) both count
// (platform, workload) cells, summing to the chunk's distinct workloads
// times its open platforms — never the job count.
func TestDebugTraceScoreCells(t *testing.T) {
	pred, ds := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	nP := ds.NumPlatforms()
	if err := s.EnablePlacement(PlacementConfig{Policy: "bound", Eps: 0.1, MaxColocation: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// Six jobs over three workloads, with deadlines nothing can meet, so
	// no platform's state changes and every platform stays open.
	var jobs []sched.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, sched.Job{Workload: i % 3, Deadline: 1e-12})
	}
	for wave := 0; wave < 2; wave++ {
		if _, err := s.PlaceJobs(jobs); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/trace/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var got [][2]float64
	for _, e := range raw.Events {
		if e["kind"] != "score" {
			continue
		}
		n, _ := e["n"].(float64)
		cached, _ := e["cached"].(float64)
		got = append(got, [2]float64{n, cached})
	}
	cells := float64(3 * nP)
	// The cold wave scores every cell; the repeat wave, on an unchanged
	// cluster, serves every cell.
	want := [][2]float64{{cells, 0}, {0, cells}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("score events (n, cached) = %v, want %v", got, want)
	}
}

// TestDebugTraceDisabled pins the gating: without placement (or with a
// negative TraceDepth) the endpoints answer 503, not empty traces.
func TestDebugTraceDisabled(t *testing.T) {
	pred, _ := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	for _, path := range []string{"/debug/trace?job=1", "/debug/trace/recent"} {
		if code := getJSON(t, ts.Client(), ts.URL+path, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("%s with recorder off: status %d, want 503", path, code)
		}
	}

	// TraceDepth < 0 disables the recorder but keeps placement (and its
	// histograms) fully functional.
	s2 := New(pred, Config{})
	defer s2.Close()
	if err := s2.EnablePlacement(PlacementConfig{Policy: "bound", Eps: 0.1, TraceDepth: -1}); err != nil {
		t.Fatal(err)
	}
	if s2.FlightRecorder() != nil {
		t.Fatal("recorder attached despite TraceDepth < 0")
	}
	if _, err := s2.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e9}}); err != nil {
		t.Fatal(err)
	}
	if s2.schedMetrics.WavePlace.Count() == 0 {
		t.Fatal("placement histograms dead with recorder disabled")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	pitot "repro"
	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// fakeBackend answers from the oracle itself: the estimate is the
// noise-free runtime and the bound widens it by the eps-quantile of the
// oracle's measurement noise, so the harness's checks hold without a
// trained model.
type fakeBackend struct {
	cl      *wasmcluster.Cluster
	version atomic.Uint64
}

func (f *fakeBackend) Estimate(w, pl int, ks []int) float64 {
	return f.cl.TrueIsolationSeconds(w, pl) * math.Exp(f.cl.TrueInterferenceLogSlowdown(w, pl, ks))
}

// upperNormal is the standard normal quantile at 1-eps, by bisection.
func upperNormal(eps float64) float64 {
	lo, hi := 0.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(mid/math.Sqrt2) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (f *fakeBackend) Bound(w, pl int, ks []int, eps float64) (float64, error) {
	sigma := 0.04 + 0.03*float64(len(ks))
	return f.Estimate(w, pl, ks) * math.Exp(upperNormal(eps)*sigma), nil
}

func (f *fakeBackend) EstimateBatch(qs []pitot.Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = f.Estimate(q.Workload, q.Platform, q.Interferers)
	}
	return out
}

func (f *fakeBackend) BoundBatch(qs []pitot.Query, eps float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i], _ = f.Bound(q.Workload, q.Platform, q.Interferers, eps)
	}
	return out, nil
}

func (f *fakeBackend) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	copy(meanOut, f.EstimateBatch(qs))
	b, _ := f.BoundBatch(qs, eps)
	copy(boundOut, b)
}

func (f *fakeBackend) Observe([]pitot.Observation) error {
	f.version.Add(1)
	return nil
}

func (f *fakeBackend) Info() pitot.Info {
	return pitot.Info{
		Version: f.version.Load(), Observations: 5000, Bounds: true,
		Workloads: len(f.cl.Workloads), Platforms: len(f.cl.Platforms),
	}
}

// flaky answers every seventh scalar Bound after the first thousand (past
// the warm-up) with ErrOverloaded, which the server turns into a 503.
type flaky struct {
	*fakeBackend
	calls atomic.Int64
}

func (f *flaky) Bound(w, pl int, ks []int, eps float64) (float64, error) {
	if n := f.calls.Add(1); n > 1000 && n%7 == 0 {
		return 0, serve.ErrOverloaded
	}
	return f.fakeBackend.Bound(w, pl, ks, eps)
}

// fakeSetup builds a world over a small oracle: 12 workloads on 3 devices.
func fakeSetup(dataSeed int64, tr *tracer) (*world, setupTimes, error) {
	cl := wasmcluster.New(wasmcluster.Config{Seed: dataSeed, NumWorkloads: 12, MaxDevices: 3, SetsPerDegree: 5})
	fb := &fakeBackend{cl: cl}
	srv, err := newServer(&flaky{fakeBackend: fb}, tr)
	if err != nil {
		return nil, setupTimes{}, err
	}
	return &world{oracle: cl, be: fb, srv: srv, tr: tr}, setupTimes{}, nil
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one kind of run.
func benchmarkMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSmokeEveryMetricPrints(t *testing.T) {
	for _, wl := range []string{"predict", "place"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := cli([]string{"--workload", wl, "--seed", "3", "--seconds", "3", "--trace", trace, "--out", t.TempDir()},
					&stdout, &stderr, fakeSetup)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				key := "end_to_end"
				if trace == "1" {
					key = "per_layer"
				}
				want := benchmarkMetrics(t, key)
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", name, m, ok, unit)
					}
					if !strings.Contains(stdout.String(), name) {
						t.Errorf("metric %s missing from the text report", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				if wl == "predict" && trace == "0" {
					// Every seventh scalar bound is refused: a 503 counts as
					// a failure and the run goes on.
					if res.Failed == 0 || res.Metrics["ok_pct"].Value >= 100 {
						t.Errorf("forced 503s not counted: failed %d ok_pct %v", res.Failed, res.Metrics["ok_pct"].Value)
					}
				}
			})
		}
	}
}

func TestDigestMismatchFailsTracedRun(t *testing.T) {
	// A backend whose answers depend on which copy of the program serves
	// them must fail the traced run's digest check.
	n := 0
	setup := func(dataSeed int64, tr *tracer) (*world, setupTimes, error) {
		n++
		cl := wasmcluster.New(wasmcluster.Config{Seed: dataSeed + int64(n), NumWorkloads: 12, MaxDevices: 3, SetsPerDegree: 5})
		fb := &fakeBackend{cl: cl}
		srv, err := newServer(fb, tr)
		if err != nil {
			return nil, setupTimes{}, err
		}
		return &world{oracle: cl, be: fb, srv: srv, tr: tr}, setupTimes{}, nil
	}
	var stdout, stderr bytes.Buffer
	code := cli([]string{"--workload", "place", "--seed", "3", "--seconds", "3", "--trace", "1", "--out", t.TempDir()}, &stdout, &stderr, setup)
	if code == 0 || !strings.Contains(stderr.String(), "digest") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

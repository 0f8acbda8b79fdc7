package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// Traffic shape.
const (
	predictBodies = 4096 // distinct /estimate and /bound bodies, cycled
	waveBodies    = 1024 // distinct /place waves, cycled
	waveJobs      = 16   // jobs per /place wave
	// occupancy is the share of colocation slots kept filled: after each
	// wave the oldest jobs are completed down to this level.
	occupancy = 0.5
	// zipfS skews workload popularity so that waves repeat workloads.
	zipfS = 1.2
	// slackMin and slackMax bound the log-uniform deadline slack over a
	// workload's median isolation runtime: a slack near 1 is infeasible on
	// the slower half of the platforms.
	slackMin, slackMax = 0.1, 4.0
)

// predictInput is one pre-encoded /estimate or /bound call.
type predictInput struct {
	path string
	body []byte
	q    serve.EstimateRequest
}

// predictTraffic draws single queries uniformly: a workload, a platform and
// 0-3 distinct interferers other than the workload; even positions go to
// /estimate, odd ones to /bound at eps.
func predictTraffic(rng *rand.Rand, nw, np, n int) ([]predictInput, error) {
	out := make([]predictInput, n)
	for i := range out {
		req := serve.EstimateRequest{Workload: rng.Intn(nw), Platform: rng.Intn(np)}
		k := rng.Intn(4)
		for _, j := range rng.Perm(nw) {
			if len(req.Interferers) == k {
				break
			}
			if j != req.Workload {
				req.Interferers = append(req.Interferers, j)
			}
		}
		path := "/estimate"
		if i%2 == 1 {
			path, req.Eps = "/bound", eps
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode query: %w", err)
		}
		out[i] = predictInput{path: path, body: body, q: req}
	}
	return out, nil
}

// waveTraffic draws /place waves: workloads from a Zipf popularity over
// the given order, each with a deadline of its median isolation runtime
// over the platforms (from the oracle) times a log-uniform slack.
func waveTraffic(rng *rand.Rand, cl *wasmcluster.Cluster, order []int, n int) ([][]byte, error) {
	nw, np := len(cl.Workloads), len(cl.Platforms)
	median := make([]float64, nw)
	iso := make([]float64, np)
	for w := range median {
		for p := range iso {
			iso[p] = cl.TrueIsolationSeconds(w, p)
		}
		sort.Float64s(iso)
		median[w] = iso[np/2]
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nw-1))
	out := make([][]byte, n)
	for i := range out {
		req := serve.PlaceRequest{Jobs: make([]serve.JobSpec, waveJobs)}
		for j := range req.Jobs {
			w := order[zipf.Uint64()]
			slack := math.Exp(math.Log(slackMin) + rng.Float64()*(math.Log(slackMax)-math.Log(slackMin)))
			req.Jobs[j] = serve.JobSpec{Workload: w, Deadline: median[w] * slack}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode wave: %w", err)
		}
		out[i] = body
	}
	return out, nil
}

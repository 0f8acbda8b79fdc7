// Serving demonstrates the snapshot-isolated serving layer: a trained
// predictor behind the server, which serves each call on its caller's
// goroutine, hammered by concurrent clients while online learning
// publishes new model snapshots mid-flight.
//
//	go run ./examples/serving
//
// Things to watch in the output: reads never block (throughput stays flat
// across the Observe), the snapshot version ticks up without any reader
// seeing a torn model, and the per-snapshot metrics show which traffic was
// served by which model version.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	pitot "repro"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	fmt.Println("== Pitot serving demo: snapshot-isolated concurrent serving ==")

	ds := pitot.GenerateDataset(pitot.DatasetConfig{
		Seed: 7, NumWorkloads: 30, MaxDevices: 5, SetsPerDegree: 12,
	})
	cfg := pitot.DefaultModelConfig(7)
	cfg.Hidden = 32
	cfg.EmbeddingDim = 16
	cfg.Steps = 500
	cfg.EvalEvery = 125
	fmt.Printf("training on %d observations (%d workloads x %d platforms)...\n",
		len(ds.Obs), ds.NumWorkloads(), ds.NumPlatforms())
	pred, err := pitot.Train(ds, pitot.Options{Seed: 7, Model: &cfg, EnableBounds: true})
	if err != nil {
		log.Fatal(err)
	}

	srv := serve.New(pred, serve.Config{})
	defer srv.Close()

	const (
		clients  = 8
		duration = 2 * time.Second
	)
	var (
		served   atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		baseW    = 3
		baseP    = 1
		baseline = pred.Estimate(baseW, baseP, nil)
	)
	fmt.Printf("serving with %d concurrent clients for %v; baseline Estimate(%d,%d) = %.4fs\n",
		clients, duration, baseW, baseP, baseline)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := pitot.Query{
					Workload:    rng.Intn(ds.NumWorkloads()),
					Platform:    rng.Intn(ds.NumPlatforms()),
					Interferers: []int{rng.Intn(ds.NumWorkloads())},
				}
				var err error
				if rng.Intn(4) == 0 {
					_, err = srv.Bound(q, 0.1)
				} else {
					_, err = srv.Estimate(q)
				}
				if err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
				served.Add(1)
			}
		}(c)
	}

	// Mid-serving, feed drifted measurements: platform baseP got 2x slower
	// for workload baseW. Observe fine-tunes a private clone and publishes
	// a new snapshot; the clients above never block on it.
	time.Sleep(duration / 3)
	fmt.Printf("... t=%v: Observe(30 drifted measurements) while serving (snapshot v%d)\n",
		duration/3, pred.Version())
	obsStart := time.Now()
	var obs []pitot.Observation
	for i := 0; i < 30; i++ {
		obs = append(obs, pitot.Observation{Workload: baseW, Platform: baseP, Seconds: baseline * 2})
	}
	if err := srv.Observe(obs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("... observe done in %v: snapshot v%d published\n",
		time.Since(obsStart).Round(time.Millisecond), pred.Version())

	time.Sleep(duration - duration/3)
	close(stop)
	wg.Wait()

	total := served.Load()
	fmt.Printf("\nserved %d predictions in %v (%.0f/s) across %d clients\n",
		total, duration, float64(total)/duration.Seconds(), clients)
	fmt.Printf("estimate after drift: %.4fs (was %.4fs — the new snapshot adapted)\n",
		pred.Estimate(baseW, baseP, nil), baseline)

	m := srv.Metrics()
	fmt.Printf("\nmetrics: requests=%d rejected=%d\n", m.Requests, m.Rejected)
	for _, sm := range m.PerSnapshot {
		fmt.Printf("  snapshot v%d: %d queries\n", sm.Version, sm.Queries)
	}
}

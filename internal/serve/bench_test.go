package serve

import (
	"math/rand"
	"sync/atomic"
	"testing"

	pitot "repro"
	"repro/internal/sched"
)

// benchQueries builds a serving-shaped workload: every query is an
// independent (workload, platform, resident-set) arrival, so the direct
// batch path gets no cross-query amortization — the honest baseline for
// the served path's overhead.
func benchQueries(ds *pitot.Dataset, n int) []pitot.Query {
	rng := rand.New(rand.NewSource(99))
	qs := make([]pitot.Query, n)
	for i := range qs {
		qs[i] = pitot.Query{
			Workload: rng.Intn(ds.NumWorkloads()),
			Platform: rng.Intn(ds.NumPlatforms()),
			Interferers: []int{
				rng.Intn(ds.NumWorkloads()),
				rng.Intn(ds.NumWorkloads()),
			},
		}
	}
	return qs
}

// BenchmarkDirectEstimateBatch is the lower bound: the caller already holds
// a batch and calls EstimateBatch directly. Reported per query.
func BenchmarkDirectEstimateBatch(b *testing.B) {
	pred, ds := testPredictor(b)
	qs := benchQueries(ds, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.EstimateBatch(qs)
	}
	b.StopTimer()
	perQuery := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(qs))
	b.ReportMetric(perQuery, "ns/query")
	b.ReportMetric(1e9/perQuery, "queries/s")
}

// BenchmarkServedEstimate is the serving path: independent concurrent
// clients (32 per GOMAXPROCS) each submit one query, served on their own
// goroutines. One benchmark op is one served query, so ns/op compares
// directly against BenchmarkDirectEstimateBatch's ns/query.
func BenchmarkServedEstimate(b *testing.B) {
	pred, ds := testPredictor(b)
	s := New(pred, Config{MaxQueue: 1 << 16})
	defer s.Close()
	qs := benchQueries(ds, 4096)
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Intn(len(qs))
		for pb.Next() {
			if _, err := s.Estimate(qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	perQuery := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(1e9/perQuery, "queries/s")
}

// BenchmarkPlaceSingleJob drives concurrent single-job /place traffic
// (16 callers per GOMAXPROCS) through the placement engine: every call is
// its own lock-serialized wave on its caller's goroutine. One op = one
// placed-and-completed job.
func BenchmarkPlaceSingleJob(b *testing.B) {
	pred, ds := testPredictor(b)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "mean-bound", Eps: 0.1, MaxColocation: 64,
	}); err != nil {
		b.Fatal(err)
	}
	// Three permanent residents per platform: candidate scoring pays the
	// full interference fold a loaded cluster sees.
	for i := 0; i < 3*ds.NumPlatforms(); i++ {
		if a := s.Placer().Place(sched.Job{Workload: i % ds.NumWorkloads(), Deadline: 1e9}); !a.Placed() {
			b.Fatalf("resident %d unplaced", i)
		}
	}
	var seq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w := int(seq.Add(1)) % ds.NumWorkloads()
			as, err := s.PlaceJobs([]sched.Job{{Workload: w, Deadline: 1e9}})
			if err != nil {
				b.Error(err)
				return
			}
			if as[0].Placed() {
				if err := s.Placer().Complete(as[0].ID); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
}

// BenchmarkPlaceWaveFusion quantifies what placing jobs as one wave buys,
// independent of goroutine scheduling: sixteen jobs placed as sixteen
// single-job waves (each paying its own lock acquisition and per-platform
// interference folds) versus one 16-job wave (one platform-major
// pre-score, folds shared across the wave). One benchmark op is one placed-and-completed job in both
// variants.
func BenchmarkPlaceWaveFusion(b *testing.B) {
	pred, ds := testPredictor(b)
	const waveSize = 16
	for _, mode := range []string{"serial-1x16", "fused-16"} {
		b.Run(mode, func(b *testing.B) {
			s := New(pred, Config{})
			defer s.Close()
			if err := s.EnablePlacement(PlacementConfig{
				Policy: "mean-bound", Eps: 0.1, MaxColocation: 64,
			}); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3*ds.NumPlatforms(); i++ {
				if a := s.Placer().Place(sched.Job{Workload: i % ds.NumWorkloads(), Deadline: 1e9}); !a.Placed() {
					b.Fatalf("resident %d unplaced", i)
				}
			}
			wave := make([]sched.Job, waveSize)
			for i := range wave {
				wave[i] = sched.Job{Workload: i % ds.NumWorkloads(), Deadline: 1e9}
			}
			complete := func(as []sched.Assignment) {
				for _, a := range as {
					if a.Placed() {
						if err := s.Placer().Complete(a.ID); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n += waveSize {
				if mode == "fused-16" {
					as, err := s.PlaceJobs(wave)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					complete(as)
					b.StartTimer()
				} else {
					var as []sched.Assignment
					for _, j := range wave {
						a, err := s.PlaceJobs([]sched.Job{j})
						if err != nil {
							b.Fatal(err)
						}
						as = append(as, a...)
					}
					b.StopTimer()
					complete(as)
					b.StartTimer()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
		})
	}
}

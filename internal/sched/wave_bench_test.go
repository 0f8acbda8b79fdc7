package sched

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// costPred models the real predictor's per-query scoring cost (a rank-32
// dot per model head) without importing the facade: lock-hold times below
// reflect realistic wave-scoring durations.
type costPred struct {
	emb []float64 // synthetic rank-32 embeddings, one row per platform
}

func newCostPred(nP int) *costPred {
	rng := rand.New(rand.NewSource(5))
	emb := make([]float64, nP*32)
	for i := range emb {
		emb[i] = rng.NormFloat64()
	}
	return &costPred{emb: emb}
}

func (c *costPred) score(w, p int, ks []int) float64 {
	row := c.emb[(p%(len(c.emb)/32))*32:]
	var s0, s1, s2, s3 float64
	for i := 0; i < 32; i += 4 {
		v := float64(w%7) + float64(i)
		s0 += row[i] * v
		s1 += row[i+1] * v
		s2 += row[i+2] * v
		s3 += row[i+3] * v
	}
	return 1 + 1e-6*(s0+s1+s2+s3) + 0.01*float64(len(ks)) + 0.1*float64(p%3)
}

func (c *costPred) EstimateSeconds(w, p int, ks []int) float64 { return c.score(w, p, ks) }
func (c *costPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return c.score(w, p, ks) * 1.5
}

func (c *costPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	loopHeads(c, qs, eps, meanOut, boundOut)
}

func (c *costPred) ScoreEpoch() uint64 { return 0 }

// benchWaveLockHold measures how long PlaceAll holds the placement mutex
// per chunk while placing 256-job waves — what a concurrent PlaceAll
// waits, and how stale a chunk's views can grow before the next copy
// (lifecycle calls wait for neither: they take only the store mutex).
// Chunk-boundary timestamps come from the chunkGap hook, so the
// measurement needs no cross-goroutine scheduling (which a 1-vCPU runner
// would quantize to the Go preemption interval and drown the signal).
func benchWaveLockHold(b *testing.B, chunk int) {
	b.Helper()
	s, err := New(Config{
		NumPlatforms:  24,
		MaxColocation: 12,
		WaveChunk:     chunk,
	}, policy("mean-bound"), newCostPred(24))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	wave := make([]Job, 256)
	for i := range wave {
		wave[i] = Job{Workload: rng.Intn(40), Deadline: 1e9}
	}
	var holds []time.Duration
	var lockStart time.Time
	// chunkGap runs between lock holds: close the previous hold, open the
	// next. The final chunk's hold closes after PlaceAll returns.
	s.chunkGap = func() {
		now := time.Now()
		holds = append(holds, now.Sub(lockStart))
		lockStart = now
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lockStart = time.Now()
		as := s.PlaceAll(wave)
		holds = append(holds, time.Since(lockStart))
		b.StopTimer()
		for _, a := range as {
			if a.Placed() {
				if err := s.Complete(a.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	if len(holds) == 0 {
		b.Fatal("no lock holds measured")
	}
	sort.Slice(holds, func(i, j int) bool { return holds[i] < holds[j] })
	b.ReportMetric(float64(holds[len(holds)/2].Nanoseconds()), "p50-lock-hold-ns")
	b.ReportMetric(float64(holds[len(holds)*99/100].Nanoseconds()), "p99-lock-hold-ns")
	b.ReportMetric(float64(holds[len(holds)-1].Nanoseconds()), "max-lock-hold-ns")
}

// BenchmarkWaveLockHold256Unchunked: the whole 256-job wave under one
// lock hold, against one copy of the cluster state.
func BenchmarkWaveLockHold256Unchunked(b *testing.B) { benchWaveLockHold(b, -1) }

// BenchmarkWaveLockHold256Chunk16: the lock is released, and the views
// copied again, every 16 jobs.
func BenchmarkWaveLockHold256Chunk16(b *testing.B) { benchWaveLockHold(b, 16) }

// BenchmarkWaveLockHold256Chunk64 is the default chunking.
func BenchmarkWaveLockHold256Chunk64(b *testing.B) { benchWaveLockHold(b, 64) }

// BenchmarkWaveNoReuse64 times the case the score table cannot help: each
// 64-job wave has 64 distinct workloads, and completing every placed job
// between waves changes every platform, so no cell is ever served and every
// commit rescores one column for the workloads still to place. Its work is
// the uncached engine's query for query (TestGoldenChurnQueries), so the
// time per wave shows what the table's stamps and stores cost on top.
func BenchmarkWaveNoReuse64(b *testing.B) {
	const nP = 24
	s, err := New(Config{NumPlatforms: nP, MaxColocation: 12}, policy("mean-bound"), newCostPred(nP))
	if err != nil {
		b.Fatal(err)
	}
	wave := make([]Job, 64)
	for i := range wave {
		wave[i] = Job{Workload: i, Deadline: 1e9}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := s.PlaceAll(wave)
		b.StopTimer()
		for _, a := range as {
			if !a.Placed() {
				b.Fatal("wave job unplaced")
			}
			if err := s.Complete(a.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

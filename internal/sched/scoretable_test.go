package sched

import (
	"math/rand"
	"testing"
	"unsafe"
)

// The score-table tests pin what the wave path reuses and when it must
// not: a cell is served only while its platform's slot version and the
// scoring epoch both still match, and reuse never changes a decision.

// TestScoreCacheDecisionIdentityUnderChurn is the reuse property on the
// fake predictor: for seeded random op sequences — Zipf-skewed waves,
// single placements, completions with breaker outcomes, Fail/Degrade/
// Recover churn and scoring-epoch bumps — the warm-table engine produces
// assignments bitwise identical to a cold-table engine, including job IDs,
// budgets, unplaced reasons and interference sets, at randomized cluster
// sizes and chunk sizes.
func TestScoreCacheDecisionIdentityUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for pi, pol := range goldenPolicies() {
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			nP := 3 + rng.Intn(6)
			cfg := Config{
				NumPlatforms:  nP,
				MaxColocation: 1 + rng.Intn(3),
				MaxInFlight:   rng.Intn(2 * nP),
				Strategy:      goldenStrategies()[rng.Intn(3)],
				WaveChunk:     []int{0, 1, 2, 4, -1}[rng.Intn(5)],
				Breaker:       BreakerConfig{Threshold: 0.5, Window: 4, Probation: 2},
			}
			digests := map[string]uint64{}
			var warm *Scheduler
			for _, name := range []string{"cold", "warm"} {
				pred := newGoldenPred(rand.New(rand.NewSource(seed)), nP)
				var p Predictor = pred
				if name == "cold" {
					// The no-reuse reference the warm table must match bit
					// for bit: every chunk rescores every cell.
					p = &scalarRef{scalarHeads: pred}
				}
				arm := mustNew(t, cfg, pol, p)
				if name == "warm" {
					warm = arm
				}
				digests[name] = goldenWaves(t, arm, pred, nP, true, seed+100)
			}
			if digests["warm"] != digests["cold"] {
				t.Errorf("seed %d %s: digest %#x (warm), want %#x (cold)",
					seed, pol.Name(), digests["warm"], digests["cold"])
			}
			if st := warm.ScoreTableStats(); st.Hits == 0 {
				t.Errorf("seed %d %s: warm engine served no cells: %+v", seed, pol.Name(), st)
			}
		}
	}
}

// infeasibleWave builds n distinct-workload jobs no platform can serve in
// time: they are scored everywhere but never placed, so no slot version
// moves between waves.
func infeasibleWave(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: i, Deadline: 1e-12}
	}
	return jobs
}

// statsDelta runs f and returns the score-table and predictor traffic it
// caused.
func statsDelta(s *Scheduler, pred *goldenPred, f func()) (hits, misses, queries int64) {
	st0, q0 := s.ScoreTableStats(), pred.queries
	f()
	st1 := s.ScoreTableStats()
	return int64(st1.Hits - st0.Hits), int64(st1.Misses - st0.Misses), pred.queries - q0
}

// TestScoreCacheCountersAndInvalidation pins the counter semantics: cold
// misses, steady-state full hits with zero predictor queries, whole-table
// staleness on an epoch bump, and single-column staleness on a platform
// mutation.
func TestScoreCacheCountersAndInvalidation(t *testing.T) {
	pred := &goldenPred{base: []float64{1, 2, 3}}
	s := mustNew(t, Config{NumPlatforms: 3}, policy("mean"), pred)
	wave := infeasibleWave(5)
	check := func(stage string, wantHits, wantMisses int64) {
		t.Helper()
		hits, misses, queries := statsDelta(s, pred, func() { s.PlaceAll(wave) })
		if hits != wantHits || misses != wantMisses || queries != wantMisses {
			t.Fatalf("%s: hits %d misses %d queries %d, want %d/%d/%d",
				stage, hits, misses, queries, wantHits, wantMisses, wantMisses)
		}
	}
	check("cold wave", 0, 15)
	check("warm wave", 15, 0)

	// An epoch bump (a snapshot publish) stales every cell at once.
	pred.epoch++
	check("after epoch bump", 0, 15)
	check("steady under new epoch", 15, 0)

	// A platform mutation stales only that platform's column.
	if err := s.Degrade(0); err != nil {
		t.Fatal(err)
	}
	check("after Degrade(0)", 10, 5)
	check("steady after Degrade(0)", 15, 0)
}

// TestScoreTableRescoresOnlyChangedColumn pins the version bump of every
// lifecycle event: one Complete, Fail, Degrade, Recover or breaker trip on
// platform p rescores p's column and nothing else (a platform that leaves
// the placeable set is not scored at all).
func TestScoreTableRescoresOnlyChangedColumn(t *testing.T) {
	const nP, nD = 4, 5
	pred := &goldenPred{base: []float64{1, 1.5, 2, 2.5}}
	arm := mustNew(t, Config{NumPlatforms: nP, MaxColocation: 4,
		Breaker: BreakerConfig{Threshold: 0.5, Window: 2, MinSamples: 1, Probation: 1}}, policy("mean"), pred)
	// Two residents per platform (least-loaded spreads them), so each
	// platform has jobs to complete.
	idsOn := map[int][]JobID{}
	for i := 0; i < 2*nP; i++ {
		a := arm.Place(Job{Workload: 20 + i, Deadline: 1e9})
		if !a.Placed() {
			t.Fatalf("setup placement %d unplaced: %+v", i, a)
		}
		idsOn[a.Platform] = append(idsOn[a.Platform], a.ID)
	}
	wave := infeasibleWave(nD)
	arm.PlaceAll(wave) // warm every column
	step := func(event string, apply func() error, open int, rescored int64) {
		t.Helper()
		if err := apply(); err != nil {
			t.Fatalf("%s: %v", event, err)
		}
		hits, misses, queries := statsDelta(arm, pred, func() { arm.PlaceAll(wave) })
		wantHits := int64(open)*nD - rescored
		if misses != rescored || queries != rescored || hits != wantHits {
			t.Fatalf("after %s: hits %d misses %d queries %d, want %d/%d/%d",
				event, hits, misses, queries, wantHits, rescored, rescored)
		}
	}
	step("nothing", func() error { return nil }, nP, 0)
	step("Complete on 1", func() error { return arm.Complete(idsOn[1][0]) }, nP, nD)
	step("Degrade 2", func() error { return arm.Degrade(2) }, nP, nD)
	step("Recover 2", func() error { return arm.Recover(2) }, nP, nD)
	step("Fail 3", func() error { _, err := arm.Fail(3); return err }, nP-1, 0)
	step("Recover 3 (half-open)", func() error { return arm.Recover(3) }, nP, nD)
	step("breaker trip on 0", func() error {
		tripped, err := arm.CompleteOutcome(idsOn[0][0], true)
		if err == nil && !tripped {
			t.Fatal("missed completion did not trip the breaker")
		}
		return err
	}, nP-1, 0)
	// Half-open probation caps platform 0 at one job: it reopens once
	// its last resident completes.
	step("Recover 0 (half-open, full)", func() error { return arm.Recover(0) }, nP-1, 0)
	step("Complete on 0", func() error { return arm.Complete(idsOn[0][1]) }, nP, nD)
}

// TestScoreTableUnwrittenCellNeverServed pins the stamp rule: slot
// versions and an epoch-less predictor's epoch both start at 0, and a
// zeroed cell must still miss.
func TestScoreTableUnwrittenCellNeverServed(t *testing.T) {
	tab := waveTable{nP: 2}
	tab.grow(3)
	tab.distinct, tab.last = []int{0, 1, 2, 3}, []int{0, 1, 2, 3}
	qs, hits := tab.lookupColumn(nil, 1, &platformView{ver: 0, placeable: true, cap: 1}, 0)
	if hits != 0 || len(qs) != 4 {
		t.Fatalf("fresh table served %d cells, queued %d", hits, len(qs))
	}

	// End to end: a predictor with neither epoch nor version facet.
	pred := loop(variedPred{base: []float64{1, 2, 3}})
	s := mustNew(t, Config{NumPlatforms: 3}, policy("mean"), pred)
	s.PlaceAll(infeasibleWave(4))
	if st := s.ScoreTableStats(); st.Hits != 0 || st.Misses != 12 || pred.batchQueries.Load() != 12 {
		t.Fatalf("first wave at version 0, epoch 0: %+v, %d queries", st, pred.batchQueries.Load())
	}
	s.PlaceAll(infeasibleWave(4))
	if st := s.ScoreTableStats(); st.Hits != 12 || pred.batchQueries.Load() != 12 {
		t.Fatalf("repeat wave: %+v, %d queries", st, pred.batchQueries.Load())
	}
}

// TestScoreCacheEpochMovesMidChunk: when the scoring epoch moves while a
// chunk scores (a publish landing mid-chunk) and stays moved, nothing the
// chunk stored under the epoch it read at its start is served later.
func TestScoreCacheEpochMovesMidChunk(t *testing.T) {
	pred := &flipPred{goldenPred: &goldenPred{base: []float64{1, 2}}}
	s := mustNew(t, Config{NumPlatforms: 2}, policy("mean"), pred)
	pred.flip = true // the chunk's scoring call moves the epoch 0 -> 1
	s.PlaceAll(infeasibleWave(3))
	pred.flip = false // and it stays at 1
	hits, misses, _ := statsDelta(s, pred.goldenPred, func() { s.PlaceAll(infeasibleWave(3)) })
	if hits != 0 || misses != 6 {
		t.Fatalf("cells scored across an epoch move were served: hits %d misses %d", hits, misses)
	}
}

// flipPred bumps its epoch inside a scoring call when flip is set.
type flipPred struct {
	*goldenPred
	flip bool
}

func (f *flipPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	if f.flip {
		f.goldenPred.epoch++
	}
	f.goldenPred.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
}

// TestScoreTableMemoryBound pins the table's size: it evicts nothing and
// grows to the largest workload index seen, 24 bytes (an 8-byte stamp and
// two float64 scores) per (platform, workload).
func TestScoreTableMemoryBound(t *testing.T) {
	if sz := unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(scores{}); sz != 24 {
		t.Fatalf("a cell is %d bytes, want 24", sz)
	}
	pred := &goldenPred{base: []float64{1, 2, 3}}
	s := mustNew(t, Config{NumPlatforms: 3}, policy("mean"), pred)
	table := &s.table
	cells := func() (int, int) { return len(table.ver), len(table.val) }
	s.PlaceAll(infeasibleWave(12))
	if nv, ns := cells(); nv != 12*3 || ns != 12*3 {
		t.Fatalf("table holds %d stamps, %d scores after workloads 0..11 on 3 platforms, want 36", nv, ns)
	}
	// Nothing was evicted: the same wave is served whole.
	if hits, misses, _ := statsDelta(s, pred, func() { s.PlaceAll(infeasibleWave(12)) }); hits != 36 || misses != 0 {
		t.Fatalf("repeat wave: hits %d misses %d", hits, misses)
	}
	s.Place(Job{Workload: 40, Deadline: 1e-12})
	if nv, ns := cells(); nv != 41*3 || ns != 41*3 {
		t.Fatalf("table holds %d stamps, %d scores after workload 40, want %d", nv, ns, 41*3)
	}
}

// TestScoreCacheIntraWaveDedup pins the dedup: a dup-heavy wave collapses
// to distinct workloads × platforms queries before the predictor is
// consulted.
func TestScoreCacheIntraWaveDedup(t *testing.T) {
	pred := &goldenPred{base: []float64{1, 2, 3, 4}}
	s := mustNew(t, Config{NumPlatforms: 4}, policy("mean"), pred)
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Workload: i % 3, Deadline: 1e-12}
	}
	s.PlaceAll(jobs)
	if pred.queries != 12 { // 3 distinct workloads × 4 platforms
		t.Fatalf("predictor scored %d queries, want 12 (deduped from %d)", pred.queries, 12*4)
	}
}

// TestScoreTableScalarReferenceNeverHits pins what makes scalarRef a
// reference: its epoch moves on every read, so a repeated wave on an
// unchanged cluster, which a constant-epoch predictor serves wholly from
// the table, is scored afresh.
func TestScoreTableScalarReferenceNeverHits(t *testing.T) {
	pred := &goldenPred{base: []float64{1, 2}}
	s := mustNew(t, Config{NumPlatforms: 2}, policy("mean"), &scalarRef{scalarHeads: pred})
	s.PlaceAll(infeasibleWave(3))
	s.PlaceAll(infeasibleWave(3))
	if st := s.ScoreTableStats(); st.Hits != 0 || st.Misses != 12 {
		t.Fatalf("scalar reference served from the table: %+v", st)
	}
}

// hitRate drives a serving-shaped stream — 16-job Zipf(1.2) waves over 48
// workloads on 80 platforms, the benchmark's shape — in which a share
// churn of each wave's jobs is placeable and the rest is infeasible, and
// completes the oldest jobs back to half occupancy after each wave. It
// returns the share of cells served from the table after a warm-up.
func hitRate(t *testing.T, churn float64) float64 {
	t.Helper()
	const nP, nW = 80, 48
	rng := rand.New(rand.NewSource(5))
	pred := newGoldenPred(rng, nP)
	s := mustNew(t, Config{NumPlatforms: nP, MaxColocation: 4}, policy("bound"), pred)
	zipf := rand.NewZipf(rng, 1.2, 1, nW-1)
	var live []JobID
	wave := func() {
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{Workload: int(zipf.Uint64()), Deadline: 1e-12}
			if rng.Float64() < churn {
				jobs[i].Deadline = 1e9
			}
		}
		for _, a := range s.PlaceAll(jobs) {
			if a.Placed() {
				live = append(live, a.ID)
			}
		}
		for len(live) > nP*4/2 {
			if err := s.Complete(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	for i := 0; i < 80; i++ {
		wave()
	}
	st0 := s.ScoreTableStats()
	for i := 0; i < 200; i++ {
		wave()
	}
	st := s.ScoreTableStats()
	hits, misses := float64(st.Hits-st0.Hits), float64(st.Misses-st0.Misses)
	return hits / (hits + misses)
}

// TestScoreTableSteadyStateHitRate requires the steady-state share of
// cells served from the table to clear 50% when a quarter of each wave
// places (and as many jobs complete). With every job placeable, up to 32
// of the 80 platforms change per wave and every commit rescores its
// platform for the rest of the wave; that share is logged, not gated.
func TestScoreTableSteadyStateHitRate(t *testing.T) {
	for _, churn := range []float64{0.25, 1} {
		rate := hitRate(t, churn)
		t.Logf("churn %.2f: steady-state hit rate %.3f", churn, rate)
		if churn < 1 && rate < 0.5 {
			t.Errorf("churn %.2f: steady-state hit rate %.3f below 0.5", churn, rate)
		}
	}
}

// TestScoreCacheStableWaveAllocsNoWorse bounds a warm wave's allocations:
// on an unchanged cluster with residents on every platform, a wave is
// served from the table and allocates only its result slice — no
// resident snapshot per open platform, no query batch.
func TestScoreCacheStableWaveAllocsNoWorse(t *testing.T) {
	const nP = 16
	pred := &goldenPred{base: make([]float64, nP)}
	for p := range pred.base {
		pred.base[p] = 1 + float64(p)/8
	}
	s := mustNew(t, Config{NumPlatforms: nP, MaxColocation: 4}, policy("bound"), pred)
	for i := 0; i < 2*nP; i++ {
		if a := s.Place(Job{Workload: i % 7, Deadline: 1e9}); !a.Placed() {
			t.Fatalf("setup placement %d unplaced", i)
		}
	}
	wave := infeasibleWave(8)
	s.PlaceAll(wave) // warm the table and scratch
	if allocs := testing.AllocsPerRun(100, func() { s.PlaceAll(wave) }); allocs > 1 {
		t.Fatalf("warm wave allocates %v times, want at most 1 (the result slice)", allocs)
	}
}

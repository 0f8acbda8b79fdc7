package sched

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// The golden decision digests pin every placement decision the engines
// make on seeded streams and wave drivers: each digest was recorded once
// and must never change. A scoring or selection rewrite that moves one
// job, one budget bit or one unplaced reason fails here.

// goldenPred is the digest tests' fake predictor: deterministic, sensitive
// to the workload, the platform, every interferer and a mutable scoring
// epoch (an Observe stand-in), with a scoring call that loops the scalar
// heads so every arm yields the same bits. Every product is rounded
// explicitly, so no architecture may fuse it into an FMA and the digests
// hold on any GOARCH. queries counts the queries scored through
// ScoreSecondsBatch.
type goldenPred struct {
	base    []float64
	epoch   uint64
	queries int64
}

func newGoldenPred(rng *rand.Rand, nP int) *goldenPred {
	base := make([]float64, nP)
	for p := range base {
		base[p] = 0.4 + 2*rng.Float64()
	}
	return &goldenPred{base: base}
}

func (g *goldenPred) EstimateSeconds(w, p int, ks []int) float64 {
	v := float64(g.base[p] * float64(1+float64(0.17*float64(w%7))))
	v = float64(v * float64(1+float64(0.29*float64(len(ks)))))
	for _, k := range ks {
		v = float64(v * float64(1+float64(0.011*float64(k%11))))
	}
	return float64(v * float64(1+float64(0.03*float64(g.epoch%5))))
}

// BoundSeconds has no valid bound for every thirteenth workload, so the
// +Inf infeasibility path is part of every digest.
func (g *goldenPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	if w%13 == 12 {
		return math.Inf(1)
	}
	return float64(g.EstimateSeconds(w, p, ks) * float64(1+float64(0.6*float64(1-eps))))
}

func (g *goldenPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	g.queries += int64(len(qs))
	loopHeads(g, qs, eps, meanOut, boundOut)
}

func (g *goldenPred) ScoreEpoch() uint64 { return g.epoch }
func (g *goldenPred) Version() uint64    { return g.epoch }

// ObserveSeconds stands in for an online fine-tune: every flush publishes
// a new scoring epoch.
func (g *goldenPred) ObserveSeconds([]Measurement) error {
	g.epoch++
	return nil
}

// digest is an FNV-1a accumulator over decisions.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) ints(ks []int) {
	d.u64(uint64(len(ks)))
	for _, k := range ks {
		d.u64(uint64(int64(k)))
	}
}

// assignment hashes everything a placement decision carries: the job ID,
// platform, budget bits, unplaced reason, rejection flag and the
// interference set the job was scored under.
func (d *digest) assignment(a Assignment) {
	d.u64(uint64(a.ID))
	d.u64(uint64(int64(a.Platform)))
	d.u64(math.Float64bits(a.Budget))
	d.str(a.Reason)
	if a.Rejected {
		d.u64(1)
	} else {
		d.u64(0)
	}
	d.ints(a.Interferers)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func goldenPolicies() []Policy {
	pols := make([]Policy, len(policyNames))
	for i, n := range policyNames {
		pols[i] = policy(n)
	}
	return pols
}

func goldenStrategies() []Strategy {
	return []Strategy{LeastLoaded{}, BestFit{}, UtilizationAware{}}
}

// goldenStream runs one seeded sched.Stream (every placement goes through
// the engine's Place) and digests what it exposes: every placement's
// (workload, platform, interferers) in order through the oracle, the
// stream recorder's lifecycle events (without their wall-clock stamps)
// and the full result.
func goldenStream(t *testing.T, pol Policy, strat Strategy, chaos bool, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nP = 7
	pred := newGoldenPred(rng, nP)
	s, err := New(Config{
		NumPlatforms:  nP,
		MaxColocation: 3,
		MaxInFlight:   3*nP - 2,
		Strategy:      strat,
		Breaker:       BreakerConfig{Window: 6, Threshold: 0.4, MinSamples: 3, Probation: 2},
	}, pol, pred)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	oracle := oracleFunc(func(w, p int, ks []int) float64 {
		d.u64(uint64(w))
		d.u64(uint64(p))
		d.ints(ks)
		return float64(0.3+float64(0.15*float64(w%4))) * float64(1+float64(0.4*float64(len(ks))))
	})
	source := func(rng *rand.Rand, i int) Job {
		w := rng.Intn(16)
		return Job{Workload: w, Deadline: pred.EstimateSeconds(w, rng.Intn(nP), nil) * (0.7 + 2.5*rng.Float64())}
	}
	rec := obs.NewRecorder(1 << 15)
	cfg := StreamConfig{
		Jobs:             220,
		ArrivalRate:      4,
		RetryLimit:       2,
		RetryBackoff:     0.3,
		FeedbackEvery:    40,
		FeedbackInterval: 0,
		BreakerCooldown:  3,
		Recorder:         rec,
	}
	if chaos {
		cfg.Chaos = &ChaosConfig{MTTF: 6, MTTR: 1.5, Groups: [][]int{{0, 1}, {2}, {3, 4}, {5}, {6}},
			DegradeProb: 0.35, Seed: seed + 17}
	}
	res, err := Stream(cfg, s, oracle, source, pred, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("stream recorder dropped %d events", rec.Dropped())
	}
	for _, e := range rec.Recent(int(rec.Total())) {
		d.u64(uint64(e.Kind))
		d.u64(e.Job)
		d.u64(e.ID)
		d.u64(uint64(int64(e.Platform)))
		d.u64(uint64(int64(e.N)))
		d.u64(uint64(e.Reason))
		d.u64(e.Version)
	}
	d.str(fmt.Sprintf("%+v", res))
	return d.sum()
}

// goldenWaves drives one arm through a seeded op sequence — Zipf-skewed
// PlaceAll waves, single Place calls, completions (half of them feeding
// the breaker) and scoring-epoch bumps, plus with churn on Fail, Degrade
// and Recover events that re-place their orphans — and digests every
// assignment and lifecycle answer.
func goldenWaves(t *testing.T, arm *Scheduler, pred *goldenPred, nP int, churn bool, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 19)
	d := newDigest()
	var live []JobID
	placed := func(as []Assignment) {
		for _, a := range as {
			d.assignment(a)
			if a.Placed() {
				live = append(live, a.ID)
			}
		}
	}
	job := func() Job {
		w := int(zipf.Uint64())
		return Job{Workload: w, Deadline: pred.EstimateSeconds(w, rng.Intn(nP), nil) * (0.6 + 2.6*rng.Float64())}
	}
	for op := 0; op < 260; op++ {
		k := rng.Intn(100)
		if !churn && k >= 70 {
			k %= 70
		}
		switch {
		case k < 28:
			jobs := make([]Job, 1+rng.Intn(11))
			for i := range jobs {
				jobs[i] = job()
			}
			placed(arm.PlaceAll(jobs))
		case k < 36:
			placed([]Assignment{arm.Place(job())})
		case k < 62 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if rng.Intn(2) == 0 {
				tripped, err := arm.CompleteOutcome(id, rng.Intn(3) == 0)
				d.str(fmt.Sprint(tripped, err))
			} else {
				d.str(fmt.Sprint(arm.Complete(id)))
			}
		case k < 66:
			pred.epoch++
		case k < 70:
			// A completion of an ID that is no longer live (or never was).
			d.str(fmt.Sprint(arm.Complete(JobID(rng.Intn(400)))))
		case k < 78:
			orphans, err := arm.Fail(rng.Intn(nP))
			d.str(fmt.Sprint(len(orphans), err))
			jobs := make([]Job, 0, len(orphans))
			for _, o := range orphans {
				d.u64(uint64(o.ID))
				for i, id := range live {
					if id == o.ID {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				jobs = append(jobs, o.Job)
			}
			if len(jobs) > 0 {
				placed(arm.PlaceAll(jobs))
			}
		case k < 88:
			d.str(fmt.Sprint(arm.Degrade(rng.Intn(nP))))
		default:
			d.str(fmt.Sprint(arm.Recover(rng.Intn(nP))))
		}
	}
	return d.sum()
}

// opaqueStrategy hides a strategy's concrete type, so the engine compares
// candidates through the Strategy interface rather than its inlined
// built-in comparisons.
type opaqueStrategy struct{ Strategy }

// goldenArmNames are the configurations the wave driver must agree
// across: the engine over its score table, the engine over the scalar
// reference (scalarRef: nothing served from the table), and the table
// engine with its strategy behind the interface.
var goldenArmNames = []string{"batched", "scalar", "opaque"}

// goldenWaveArms builds goldenArmNames' engines. Each arm gets a private
// predictor from the same seed, since the driver bumps epochs.
func goldenWaveArms(t *testing.T, pol Policy, strat Strategy, chunk int, seed int64) (map[string]*Scheduler, map[string]*goldenPred, int) {
	t.Helper()
	const nP = 9
	arms := map[string]*Scheduler{}
	preds := map[string]*goldenPred{}
	for _, name := range goldenArmNames {
		pred := newGoldenPred(rand.New(rand.NewSource(seed)), nP)
		cfg := Config{
			NumPlatforms:  nP,
			MaxColocation: 3,
			MaxInFlight:   2*nP + 3,
			Strategy:      strat,
			WaveChunk:     chunk,
			Breaker:       BreakerConfig{Window: 5, Threshold: 0.4, MinSamples: 2, Probation: 2},
		}
		var p Predictor = pred
		switch name {
		case "scalar":
			p = &scalarRef{scalarHeads: pred}
		case "opaque":
			cfg.Strategy = opaqueStrategy{strat}
		}
		arms[name], preds[name] = mustNew(t, cfg, pol, p), pred
	}
	return arms, preds, nP
}

// goldenKey names one digest: policy index, strategy index, chaos/churn
// flag and (for waves) the chunk size.
func goldenKey(kind string, pi, si int, churn bool, chunk int) string {
	c := 0
	if churn {
		c = 1
	}
	return fmt.Sprintf("%s/p%d/s%d/c%d/k%d", kind, pi, si, c, chunk)
}

// TestGoldenStreamDigests pins seeded sched.Stream replays — every policy
// and strategy, chaos off and on — to the digests recorded before the
// wave score table existed.
func TestGoldenStreamDigests(t *testing.T) {
	for pi, pol := range goldenPolicies() {
		for si, strat := range goldenStrategies() {
			for _, chaos := range []bool{false, true} {
				key := goldenKey("stream", pi, si, chaos, 0)
				got := goldenStream(t, pol, strat, chaos, int64(1000+10*pi+si))
				want, ok := goldenDigests[key]
				if !ok {
					t.Errorf("no golden digest for %s: got %#x", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s (%s, %s): digest %#x, want %#x", key, pol.Name(), strat.Name(), got, want)
				}
			}
		}
	}
}

// TestGoldenWaveDigests pins the seeded wave driver — every policy and
// strategy, churn off and on, at the default WaveChunk and at WaveChunk 3
// (so post-commit rescores cross chunk boundaries) — on every arm of
// goldenArmNames. The driver is one goroutine, so no reservation may ever
// conflict.
func TestGoldenWaveDigests(t *testing.T) {
	for pi, pol := range goldenPolicies() {
		for si, strat := range goldenStrategies() {
			for _, churn := range []bool{false, true} {
				for _, chunk := range []int{0, 3} {
					key := goldenKey("waves", pi, si, churn, chunk)
					want, ok := goldenDigests[key]
					seed := int64(2000 + 10*pi + si)
					arms, preds, nP := goldenWaveArms(t, pol, strat, chunk, seed)
					for _, name := range goldenArmNames {
						got := goldenWaves(t, arms[name], preds[name], nP, churn, seed)
						switch {
						case !ok:
							t.Errorf("no golden digest for %s: %s got %#x", key, name, got)
						case got != want:
							t.Errorf("%s (%s, %s) %s: digest %#x, want %#x",
								key, pol.Name(), strat.Name(), name, got, want)
						}
						if cs := arms[name].ConflictStats(); cs.Conflicts != 0 || cs.Shed != 0 {
							t.Errorf("%s %s: uncontended engine saw conflicts: %+v", key, name, cs)
						}
					}
				}
			}
		}
	}
}

// churnQueries runs waves of all-distinct workloads and changes every
// platform's state between waves (completions, then Degrade and Recover),
// so no score is reusable within or across waves, and returns how many
// queries the predictor scored.
func churnQueries(t *testing.T, chunk int) int64 {
	t.Helper()
	const nP = 8
	rng := rand.New(rand.NewSource(77))
	pred := newGoldenPred(rng, nP)
	arm := mustNew(t, Config{NumPlatforms: nP, MaxColocation: 3, WaveChunk: chunk}, policy("mean-bound"), pred)
	var live []JobID
	for wave := 0; wave < 40; wave++ {
		jobs := make([]Job, 10)
		for i := range jobs {
			w := 10*wave + i
			jobs[i] = Job{Workload: w, Deadline: pred.EstimateSeconds(w, rng.Intn(nP), nil) * (0.8 + 2*rng.Float64())}
		}
		for _, a := range arm.PlaceAll(jobs) {
			if a.Placed() {
				live = append(live, a.ID)
			}
		}
		// Retire about half the residents, then touch every platform.
		keep := live[:0]
		for _, id := range live {
			if rng.Intn(2) == 0 {
				if err := arm.Complete(id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			keep = append(keep, id)
		}
		live = keep
		for p := 0; p < nP; p++ {
			if err := arm.Degrade(p); err != nil {
				t.Fatal(err)
			}
			if err := arm.Recover(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pred.queries
}

// TestGoldenChurnQueries pins the predictor work of waves that can reuse
// nothing: all-distinct workloads, every platform's state changed between
// waves. Score reuse may only remove queries; without reuse the count must
// match the engines that scored every (job, platform) pair.
func TestGoldenChurnQueries(t *testing.T) {
	for chunk, want := range goldenChurnQueries {
		if got := churnQueries(t, chunk); got != want {
			t.Errorf("WaveChunk %d: %d queries, want %d", chunk, got, want)
		}
	}
}

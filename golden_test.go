package pitot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sched"
)

// goldenRealDigests pins the wave driver of TestGoldenRealPredictorDigests
// on the trained model with the exact kernel, keyed by case and
// WaveChunk. Recorded on the engines before the wave score table
// replaced the uncached and cached scoring arms; must never change.
var goldenRealDigests = map[string]uint64{
	"c0/k0": 0x1272319f8dc494df,
	"c0/k3": 0x1272319f8dc494df,
	"c1/k0": 0xa8d738dde78a87e8,
	"c1/k3": 0xa8d738dde78a87e8,
}

// realGoldenDigest drives one engine through a seeded op sequence over its
// own predictor — Zipf-skewed waves, single placements, completions,
// Fail/Degrade/Recover churn with orphans re-placed, and one Observe
// halfway that publishes a fine-tuned snapshot — and digests every
// assignment (ID, platform, budget bits, reason, interferers) and
// lifecycle answer.
func realGoldenDigest(t *testing.T, arm *sched.Scheduler, pred *Predictor, nP, nW int, seed int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(nW-1))
	var live []sched.JobID
	var done []sched.Measurement
	placed := func(as []sched.Assignment) {
		for _, a := range as {
			u64(uint64(a.ID))
			u64(uint64(int64(a.Platform)))
			u64(math.Float64bits(a.Budget))
			str(a.Reason)
			u64(uint64(len(a.Interferers)))
			for _, k := range a.Interferers {
				u64(uint64(k))
			}
			if a.Placed() {
				live = append(live, a.ID)
				done = append(done, sched.Measurement{Workload: a.Job.Workload, Platform: a.Platform,
					Interferers: a.Interferers, Seconds: a.Budget * (0.5 + rng.Float64())})
			}
		}
	}
	job := func() sched.Job {
		w := int(zipf.Uint64())
		return sched.Job{Workload: w, Deadline: pred.Estimate(w, rng.Intn(nP), nil) * (0.7 + 2.5*rng.Float64())}
	}
	for op := 0; op < 160; op++ {
		if op == 80 {
			if err := pred.ObserveSeconds(done[:min(len(done), 32)]); err != nil {
				t.Fatal(err)
			}
			u64(pred.Version())
		}
		switch k := rng.Intn(100); {
		case k < 35:
			jobs := make([]sched.Job, 1+rng.Intn(14))
			for i := range jobs {
				jobs[i] = job()
			}
			placed(arm.PlaceAll(jobs))
		case k < 43:
			placed([]sched.Assignment{arm.Place(job())})
		case k < 70 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			tripped, err := arm.CompleteOutcome(id, rng.Intn(4) == 0)
			str(fmt.Sprint(tripped, err))
		case k < 78:
			orphans, err := arm.Fail(rng.Intn(nP))
			str(fmt.Sprint(len(orphans), err))
			jobs := make([]sched.Job, 0, len(orphans))
			for _, o := range orphans {
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
			str(fmt.Sprint(arm.Degrade(rng.Intn(nP))))
		default:
			str(fmt.Sprint(arm.Recover(rng.Intn(nP))))
		}
	}
	return h.Sum64()
}

// TestGoldenRealPredictorDigests is the real-model twin of the sched
// package's golden digests: the bound policy under least-loaded and the
// fused mean-bound policy under best-fit, at the default WaveChunk and at
// WaveChunk 3, each over a fresh copy of one trained predictor on the
// exact kernel. The model's floats come from math.Exp and
// compiler-scheduled float arithmetic, so the digests are pinned on amd64
// only.
func TestGoldenRealPredictorDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("real-model digests are recorded on amd64")
	}
	ds := smallDataset()
	trained, err := Train(ds, smallOptions(83, true))
	if err != nil {
		t.Fatal(err)
	}
	var dataB, meanB, quantB bytes.Buffer
	if err := trained.Export(&dataB, &meanB, &quantB); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Predictor {
		d, err := ReadDataset(bytes.NewReader(dataB.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := LoadPredictor(d, bytes.NewReader(meanB.Bytes()), bytes.NewReader(quantB.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	nP, nW := ds.NumPlatforms(), ds.NumWorkloads()
	cases := []struct {
		pol   sched.Policy
		strat sched.Strategy
	}{
		{policy(t, "bound"), sched.LeastLoaded{}},
		{policy(t, "mean-bound"), sched.BestFit{}},
	}
	for ci, c := range cases {
		pol, strat := c.pol, c.strat
		for _, chunk := range []int{0, 3} {
			key := fmt.Sprintf("c%d/k%d", ci, chunk)
			want, ok := goldenRealDigests[key]
			pred := fresh()
			arm, err := sched.New(sched.Config{NumPlatforms: nP, MaxColocation: 3, MaxInFlight: 2 * nP,
				Strategy: strat, WaveChunk: chunk,
				Breaker: sched.BreakerConfig{Window: 6, Threshold: 0.5, MinSamples: 3}}, pol, pred)
			if err != nil {
				t.Fatal(err)
			}
			got := realGoldenDigest(t, arm, pred, nP, nW, int64(300+ci))
			switch {
			case !ok:
				t.Errorf("no golden digest for %s: got %#x", key, got)
			case got != want:
				t.Errorf("%s (%s, %s): digest %#x, want %#x", key, pol.Name(), strat.Name(), got, want)
			}
		}
	}
}

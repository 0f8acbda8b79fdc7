// Command schedsim runs the end-to-end orchestration experiment: train
// Pitot on a synthetic cluster, then drive the event-driven scheduler with
// a streaming Poisson arrival process — placements occupy colocation slots
// until their true runtime (drawn from the ground-truth cluster model)
// elapses and the departure frees the slot. Several policies (mean
// estimate, padded mean, conformal bound) and placement strategies are
// swept over parallel replay trials, and with -feedback the measured
// runtimes of completed jobs are fed back into the predictor online
// (Observe), demonstrating the closed predict → place → measure → observe
// loop of the paper's motivating application (§1, §6).
//
// With -chaos, a seeded failure injector cycles platforms (or correlated
// failure groups) down and back up on exponential MTTF/MTTR clocks:
// failing a platform orphans its resident jobs into a high-priority
// reschedule queue, completions feed a per-platform circuit breaker that
// quarantines platforms whose observed miss rate crosses a threshold, and
// a failure scorecard reports orphan-reschedule latency, the miss rate
// during failure windows, and breaker trip/recovery counts. Job
// conservation (arrived == completed + shed, nothing lost or duplicated)
// is checked per trial and fatal on violation.
//
// With -bench-json, the policy sweep's table is also written as JSON.
//
// Usage:
//
//	schedsim [-seed 1] [-jobs 200] [-eps 0.1] [-steps 1200]
//	         [-policy all] [-strategy least-loaded]
//	         [-arrival-rate 2] [-trials 4] [-cluster-devices 8]
//	         [-colocation 4] [-max-inflight 0] [-chunk 0]
//	         [-retry-limit 3] [-retry-backoff 0] [-retry-backoff-max 0]
//	         [-chaos] [-mttf 60] [-mttr 8] [-chaos-groups "0,1;2,3"]
//	         [-chaos-degrade 0.25] [-chaos-seed 0] [-degraded-penalty 0]
//	         [-breaker-threshold 0] [-breaker-window 20]
//	         [-breaker-probation 3] [-breaker-cooldown 30] [-require-trip]
//	         [-feedback] [-feedback-every 25] [-feedback-interval 0]
//	         [-cluster-devices 8] [-bench-json sweep.json]
//	         [-trace-out trace.json] [-scorecard-json scorecard.json]
//	         [-cpuprofile prof.out]
//
// Flags:
//
//	-policy            comma-separated subset of mean,padded,bound,
//	                   mean-bound,padded-bound — or "all"
//	-strategy          least-loaded, best-fit, or utilization
//	-arrival-rate      mean job arrivals per simulated second (Poisson)
//	-trials            independent replays (run in parallel; aggregated)
//	-chunk             jobs placed per copy of the cluster state (0 default,
//	                   negative = whole wave)
//	-retry-limit       re-queue failed placements for up to N retries after
//	                   subsequent completions (0 drops them immediately)
//	-retry-backoff     space retries with capped exponential backoff and
//	                   seeded jitter (simulated seconds; 0 = retry on the
//	                   next completion); -retry-backoff-max caps the delay
//	-chaos             enable the failure injector (with -mttf/-mttr means)
//	-chaos-groups      correlated failure domains, ";"-separated platform
//	                   lists (e.g. "0,1;2,3"); empty = independent platforms
//	-chaos-degrade     probability a failure degrades (flaky) instead of
//	                   downing the platform
//	-chaos-seed        injector seed (0 derives from -seed); per-trial
//	                   offsets keep trials independent
//	-degraded-penalty  feasibility-score multiplier on degraded platforms
//	                   (0 = default 1.25)
//	-breaker-threshold quarantine a platform when its windowed miss rate
//	                   reaches this (0 disables automatic trips)
//	-breaker-cooldown  re-admit a tripped platform half-open after this
//	                   many simulated seconds
//	-require-trip      exit nonzero unless the replay demonstrated at least
//	                   one breaker trip and one half-open re-admission
//	                   (CI chaos smoke)
//	-feedback          additionally run the bound policy with online feedback
//	                   and report its miss rate after the Observe updates
//	-feedback-every    flush measured runtimes to Observe every N completions
//	-feedback-interval also flush whenever this many simulated seconds
//	                   passed since the last flush (0 = count trigger only),
//	                   amortizing Observe cost on sparse completion streams
//	-cluster-devices   device types in the synthetic cluster (scan cost per
//	                   placement grows with the ~10 platforms per device)
//	-bench-json        write the streaming policy sweep to this file as JSON
//	-trace-out         attach a flight recorder to the first policy's first
//	                   trial and dump it as Chrome trace-event JSON (open in
//	                   chrome://tracing or Perfetto); the artifact is
//	                   re-read and its placement lifecycle checked for
//	                   conservation before exit
//	-scorecard-json    write the per-trial failure/retry/miss scorecard of
//	                   every swept policy to this file as JSON
//	-cpuprofile        write a pprof CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	pitot "repro"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wasmcluster"
)

// The flags, registered on flag.CommandLine; validateFlags checks them
// after flag.Parse.
var (
	seed        = flag.Int64("seed", 1, "seed")
	jobs        = flag.Int("jobs", 200, "number of arriving jobs per trial")
	eps         = flag.Float64("eps", 0.1, "per-job deadline-miss budget for the bound policy")
	steps       = flag.Int("steps", 1200, "training steps")
	policyFlag  = flag.String("policy", "all", "comma-separated policies: mean,padded,bound (or all)")
	stratFlag   = flag.String("strategy", "least-loaded", "placement strategy: least-loaded, best-fit, utilization")
	arrivalRate = flag.Float64("arrival-rate", 2, "mean arrivals per simulated second")
	trials      = flag.Int("trials", 4, "independent replay trials (parallel)")
	coloc       = flag.Int("colocation", 4, "max workloads per platform")
	maxInFlight = flag.Int("max-inflight", 0, "admission bound on in-flight jobs (0 = capacity only)")
	chunk       = flag.Int("chunk", 0, "jobs placed per copy of the cluster state (0 = default, negative = whole wave)")
	retryLimit  = flag.Int("retry-limit", 3, "retry failed placements after later completions, up to N attempts each (0 = drop)")
	retryBO     = flag.Float64("retry-backoff", 0, "base retry backoff in simulated seconds, doubled per attempt with seeded jitter (0 = retry on next completion)")
	retryBOMax  = flag.Float64("retry-backoff-max", 0, "cap on the exponential retry backoff (0 = uncapped)")
	chaosOn     = flag.Bool("chaos", false, "enable the seeded platform-failure injector")
	mttf        = flag.Float64("mttf", 60, "mean simulated seconds between a failure group's repair and next failure")
	mttr        = flag.Float64("mttr", 8, "mean simulated seconds from failure to repair")
	chaosGroups = flag.String("chaos-groups", "", `correlated failure domains as ";"-separated platform lists, e.g. "0,1;2,3" (empty = independent platforms)`)
	chaosDeg    = flag.Float64("chaos-degrade", 0.25, "probability a failure degrades (flaky) instead of downing the platform")
	chaosSeed   = flag.Int64("chaos-seed", 0, "failure injector seed (0 = derive from -seed)")
	degPenalty  = flag.Float64("degraded-penalty", 0, "feasibility-score multiplier on degraded platforms (0 = default 1.25)")
	brThreshold = flag.Float64("breaker-threshold", 0, "quarantine a platform when its windowed miss rate reaches this (0 = off)")
	brWindow    = flag.Int("breaker-window", 20, "outcomes tracked per platform for the breaker")
	brProbation = flag.Int("breaker-probation", 3, "consecutive on-deadline completions to close a half-open platform")
	brCooldown  = flag.Float64("breaker-cooldown", 30, "simulated seconds before a tripped platform re-admits half-open")
	requireTrip = flag.Bool("require-trip", false, "exit nonzero unless >=1 breaker trip and >=1 half-open re-admission occurred (CI smoke)")
	feedback    = flag.Bool("feedback", false, "run the bound policy with online Observe feedback and compare")
	fbEvery     = flag.Int("feedback-every", 25, "feed measurements back every N completions")
	fbInterval  = flag.Float64("feedback-interval", 0, "also flush after this many simulated seconds since the last flush (0 = off)")

	benchJSON     = flag.String("bench-json", "", "write the streaming policy sweep to this JSON file")
	clusterDevs   = flag.Int("cluster-devices", 8, "device types in the synthetic cluster, 10 platforms each (max 24)")
	traceOut      = flag.String("trace-out", "", "dump the first policy's first trial as Chrome trace-event JSON to this file (self-validated)")
	scorecardJSON = flag.String("scorecard-json", "", "write the per-trial failure/retry/miss scorecard to this JSON file")
	cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
)

// validateFlags rejects nonsensical flag combinations up front with a
// usage error (exit 2) instead of a mid-run panic or a silently absurd
// simulation.
func validateFlags() error {
	switch {
	case *jobs < 1:
		return fmt.Errorf("-jobs must be >= 1 (got %d)", *jobs)
	case *eps <= 0 || *eps >= 1:
		return fmt.Errorf("-eps must be in (0,1) (got %g)", *eps)
	case *steps < 1:
		return fmt.Errorf("-steps must be >= 1 (got %d)", *steps)
	case *arrivalRate <= 0:
		return fmt.Errorf("-arrival-rate must be > 0 (got %g)", *arrivalRate)
	case *trials < 1:
		return fmt.Errorf("-trials must be >= 1 (got %d)", *trials)
	case *coloc < 1:
		return fmt.Errorf("-colocation must be >= 1 (got %d)", *coloc)
	case *maxInFlight < 0:
		return fmt.Errorf("-max-inflight must be >= 0 (got %d)", *maxInFlight)
	case *retryLimit < 0:
		return fmt.Errorf("-retry-limit must be >= 0 (got %d)", *retryLimit)
	case *retryBO < 0:
		return fmt.Errorf("-retry-backoff must be >= 0 (got %g)", *retryBO)
	case *retryBOMax < 0:
		return fmt.Errorf("-retry-backoff-max must be >= 0 (got %g)", *retryBOMax)
	case *retryBOMax > 0 && *retryBOMax < *retryBO:
		return fmt.Errorf("-retry-backoff-max (%g) must be >= -retry-backoff (%g)", *retryBOMax, *retryBO)
	case *chaosOn && *mttf <= 0:
		return fmt.Errorf("-chaos needs -mttf > 0 (got %g)", *mttf)
	case *chaosOn && *mttr <= 0:
		return fmt.Errorf("-chaos needs -mttr > 0 (got %g)", *mttr)
	case *chaosDeg < 0 || *chaosDeg > 1:
		return fmt.Errorf("-chaos-degrade must be in [0,1] (got %g)", *chaosDeg)
	case *requireTrip && !*chaosOn:
		return fmt.Errorf("-require-trip needs -chaos (no failures means no breaker trips)")
	case *brThreshold < 0 || *brThreshold >= 1:
		return fmt.Errorf("-breaker-threshold must be in [0,1) (got %g)", *brThreshold)
	case *brWindow < 1:
		return fmt.Errorf("-breaker-window must be >= 1 (got %d)", *brWindow)
	case *brProbation < 0:
		return fmt.Errorf("-breaker-probation must be >= 0 (got %d)", *brProbation)
	case *brCooldown < 0:
		return fmt.Errorf("-breaker-cooldown must be >= 0 (got %g)", *brCooldown)
	case *feedback && *fbEvery < 1:
		return fmt.Errorf("-feedback needs -feedback-every >= 1 (got %d)", *fbEvery)
	case *fbInterval < 0:
		return fmt.Errorf("-feedback-interval must be >= 0 (got %g)", *fbInterval)
	case *clusterDevs < 1 || *clusterDevs > 24:
		return fmt.Errorf("-cluster-devices must be in [1,24] (got %d)", *clusterDevs)
	}
	return nil
}

// oracle adapts the ground-truth cluster to sched.Oracle.
type oracle struct {
	c   *wasmcluster.Cluster
	rng *rand.Rand
}

func (o *oracle) TrueSeconds(w, p int, ks []int) float64 {
	return o.c.MeasureSeconds(o.rng, w, p, ks)
}

// parseGroups parses the -chaos-groups syntax: ";"-separated groups of
// ","-separated platform indices, e.g. "0,1;2,3". Empty means nil
// (independent per-platform failures).
func parseGroups(s string, platforms int) ([][]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var groups [][]int
	for _, gs := range strings.Split(s, ";") {
		gs = strings.TrimSpace(gs)
		if gs == "" {
			continue
		}
		var g []int
		for _, ps := range strings.Split(gs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(ps))
			if err != nil {
				return nil, fmt.Errorf("chaos-groups: bad platform index %q: %v", ps, err)
			}
			if p < 0 || p >= platforms {
				return nil, fmt.Errorf("chaos-groups: platform %d out of range [0,%d)", p, platforms)
			}
			g = append(g, p)
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedsim: ")
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "schedsim: %v\n(run with -h for usage)\n", err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cluster := wasmcluster.New(wasmcluster.Config{
		Seed: *seed, NumWorkloads: 40, MaxDevices: *clusterDevs, SetsPerDegree: 25,
	})
	ds := cluster.Generate()
	cfg := pitot.DefaultModelConfig(*seed)
	cfg.Steps = *steps
	pred, err := pitot.Train(ds, pitot.Options{Seed: *seed, Model: &cfg, EnableBounds: true})
	if err != nil {
		log.Fatal(err)
	}

	strategy, err := sched.ParseStrategy(*stratFlag)
	if err != nil {
		log.Fatal(err)
	}

	var policies []sched.Policy
	names := *policyFlag
	if names == "all" {
		names = "mean,padded,bound,mean-bound,padded-bound"
	}
	for _, n := range strings.Split(names, ",") {
		pol, err := sched.ParsePolicy(strings.TrimSpace(n), *eps, 1.3)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, pol)
	}

	// Per-trial job streams, frozen against the initial model so every
	// policy (and the feedback arm, whose estimates drift as the model
	// updates) places the identical workload/deadline sequence.
	streams := make([][]sched.Job, *trials)
	for tr := range streams {
		jrng := rand.New(rand.NewSource(*seed + 7 + int64(tr)*1013))
		streams[tr] = make([]sched.Job, *jobs)
		for i := range streams[tr] {
			w := jrng.Intn(ds.NumWorkloads())
			p := jrng.Intn(ds.NumPlatforms())
			streams[tr][i] = sched.Job{
				Workload: w,
				Deadline: pred.Estimate(w, p, nil) * (1.5 + 2*jrng.Float64()),
			}
		}
	}

	groups, err := parseGroups(*chaosGroups, ds.NumPlatforms())
	if err != nil {
		log.Fatal(err)
	}
	injectorSeed := *chaosSeed
	if injectorSeed == 0 {
		injectorSeed = *seed + 17
	}
	scfg := sched.StreamConfig{
		Jobs: *jobs, ArrivalRate: *arrivalRate, RetryLimit: *retryLimit,
		RetryBackoff: *retryBO, RetryBackoffMax: *retryBOMax,
		BreakerCooldown: *brCooldown,
	}
	// rec, when non-nil, is attached to trial 0 only: one trial's complete
	// event stream beats fragments of several interleaved ones, and the
	// parallel trials would otherwise share (and overflow) the ring.
	runTrial := func(pol sched.Policy, observer sched.Observer, fbEvery int, fbInterval float64, rec *obs.Recorder) func(tr int) (sched.StreamResult, error) {
		return func(tr int) (sched.StreamResult, error) {
			s, err := sched.New(sched.Config{
				NumPlatforms:    ds.NumPlatforms(),
				MaxColocation:   *coloc,
				MaxInFlight:     *maxInFlight,
				WaveChunk:       *chunk,
				Strategy:        strategy,
				DegradedPenalty: *degPenalty,
				Breaker: sched.BreakerConfig{
					Window:    *brWindow,
					Threshold: *brThreshold,
					Probation: *brProbation,
				},
			}, pol, pred)
			if err != nil {
				return sched.StreamResult{}, err
			}
			cfg := scfg
			cfg.FeedbackEvery = fbEvery
			cfg.FeedbackInterval = fbInterval
			if tr == 0 {
				cfg.Recorder = rec
			}
			if *chaosOn {
				cfg.Chaos = &sched.ChaosConfig{
					MTTF: *mttf, MTTR: *mttr, Groups: groups,
					DegradeProb: *chaosDeg,
					Seed:        injectorSeed + int64(tr)*7919,
				}
			}
			stream := streams[tr]
			source := func(_ *rand.Rand, i int) sched.Job { return stream[i] }
			orc := &oracle{cluster, rand.New(rand.NewSource(*seed + 99 + int64(tr)*509))}
			res, err := sched.Stream(cfg, s, orc, source, observer, rand.New(rand.NewSource(*seed+31+int64(tr)*271)))
			if err != nil {
				return res, err
			}
			// Job conservation: every arrival ends exactly once, every
			// placement completes or is orphaned. A violation means the
			// failure path lost or duplicated work.
			if res.Arrived != res.Completed+res.Unplaced+res.Rejected {
				return res, fmt.Errorf("job conservation violated (trial %d, %s): arrived %d != completed %d + unplaced %d + rejected %d",
					tr, pol.Name(), res.Arrived, res.Completed, res.Unplaced, res.Rejected)
			}
			if res.Placed != res.Completed+res.Orphaned {
				return res, fmt.Errorf("placement conservation violated (trial %d, %s): placed %d != completed %d + orphaned %d",
					tr, pol.Name(), res.Placed, res.Completed, res.Orphaned)
			}
			return res, nil
		}
	}

	fmt.Printf("streaming %d jobs/trial x %d trials at rate %.1f/s on %d platforms (strategy %s, retry-limit %d); bound targets <=%.0f%% misses\n",
		*jobs, *trials, *arrivalRate, ds.NumPlatforms(), strategy.Name(), *retryLimit, 100**eps)
	if *chaosOn {
		domain := "independent platforms"
		if len(groups) > 0 {
			domain = fmt.Sprintf("%d correlated groups", len(groups))
		}
		fmt.Printf("chaos: mttf %.0fs, mttr %.0fs, %s, degrade-prob %.2f, breaker threshold %.2f/window %d, cooldown %.0fs\n",
			*mttf, *mttr, domain, *chaosDeg, *brThreshold, *brWindow, *brCooldown)
	}
	fmt.Println()
	fmt.Printf("%-24s %8s %9s %9s %10s %9s %8s %9s\n",
		"policy", "placed", "unplaced", "rejected", "miss-rate", "headroom", "retried", "retry-ok")
	var recorder *obs.Recorder
	if *traceOut != "" {
		// Sized to hold a full trial: each arrival records an enqueue plus a
		// handful of score/place/complete/retry events, so 16x jobs leaves
		// slack for chaos-heavy replays (overflow downgrades validation, it
		// does not fail the run).
		recorder = obs.NewRecorder(*jobs*16 + 4096)
	}
	var card *scorecard
	if *scorecardJSON != "" {
		card = newScorecard(*seed, *jobs, *trials, ds.NumPlatforms(), strategy.Name(), *eps, *chaosOn)
	}
	sweep := map[string]sched.StreamResult{}
	var aggs []sched.StreamResult
	for i, pol := range policies {
		rec := recorder
		if i > 0 {
			rec = nil // trace the first policy only: one coherent timeline
		}
		results, agg, err := sched.StreamTrials(*trials, true, runTrial(pol, nil, 0, 0, rec))
		if err != nil {
			log.Fatal(err)
		}
		if card != nil {
			card.add(agg.Policy, agg, results)
		}
		sweep[agg.Policy] = agg
		aggs = append(aggs, agg)
		retryOK := "-"
		if agg.RetryQueued > 0 {
			retryOK = fmt.Sprintf("%.1f%%", 100*agg.RetryRate)
		}
		fmt.Printf("%-24s %8d %9d %9d %9.1f%% %8.1f%% %8d %9s\n",
			agg.Policy, agg.Placed, agg.Unplaced, agg.Rejected, 100*agg.MissRate, 100*agg.AvgHeadroom,
			agg.RetryQueued, retryOK)
	}
	fmt.Println("\nmiss-rate: fraction of completed jobs whose true runtime exceeded the deadline")
	fmt.Println("headroom:  mean unused fraction of the deadline (high = overprovisioned)")
	fmt.Println("retried:   jobs that entered the deferral queue after a failed placement;")
	fmt.Println("retry-ok:  share of them eventually placed by a retry (the retry success rate)")

	// -bench-json: the policy sweep as a machine-readable row set,
	// mirroring the table above.
	if *benchJSON != "" {
		type policyRow struct {
			Policy      string  `json:"policy"`
			Placed      int     `json:"placed"`
			Unplaced    int     `json:"unplaced"`
			Rejected    int     `json:"rejected"`
			MissRate    float64 `json:"miss_rate"`
			AvgHeadroom float64 `json:"avg_headroom"`
			RetryQueued int     `json:"retry_queued"`
			RetryRate   float64 `json:"retry_rate"`
		}
		sweepReport := struct {
			Bench     string      `json:"bench"`
			Platforms int         `json:"platforms"`
			Jobs      int         `json:"jobs_per_trial"`
			Trials    int         `json:"trials"`
			Strategy  string      `json:"strategy"`
			Policies  []policyRow `json:"policies"`
		}{
			Bench: "policy_stream", Platforms: ds.NumPlatforms(),
			Jobs: *jobs, Trials: *trials, Strategy: strategy.Name(),
		}
		for _, agg := range aggs {
			sweepReport.Policies = append(sweepReport.Policies, policyRow{
				Policy: agg.Policy, Placed: agg.Placed, Unplaced: agg.Unplaced,
				Rejected: agg.Rejected, MissRate: agg.MissRate, AvgHeadroom: agg.AvgHeadroom,
				RetryQueued: agg.RetryQueued, RetryRate: agg.RetryRate,
			})
		}
		if err := writeBenchJSON(*benchJSON, sweepReport); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *benchJSON)
	}

	if card != nil {
		if err := card.write(*scorecardJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nscorecard: %d policies x %d trials -> %s\n", len(card.Policies), *trials, *scorecardJSON)
	}
	if recorder != nil {
		if err := writeTrace(*traceOut, recorder); err != nil {
			log.Fatal(err)
		}
	}

	if *chaosOn {
		fmt.Println("\n-- failure scorecard (all trials) --")
		fmt.Printf("%-24s %6s %6s %8s %8s %9s %9s %6s %9s %7s %8s\n",
			"policy", "fails", "degr", "orphaned", "orph-ok", "orph-lat", "fw-miss", "trips", "readmits", "closes", "lost")
		var totalTrips, totalReadmits int
		for _, agg := range aggs {
			orphLat := "-"
			if agg.OrphanReplaced > 0 {
				orphLat = fmt.Sprintf("%.2fs", agg.OrphanLatencyMean)
			}
			fwMiss := "-"
			if agg.FailWindowPlaced > 0 {
				fwMiss = fmt.Sprintf("%.1f%%", 100*agg.FailWindowMissRate)
			}
			fmt.Printf("%-24s %6d %6d %8d %8d %9s %9s %6d %9d %7d %8d\n",
				agg.Policy, agg.Failures, agg.Degrades, agg.Orphaned, agg.OrphanReplaced,
				orphLat, fwMiss, agg.BreakerTrips, agg.BreakerReadmits, agg.BreakerCloses, agg.OrphanLost)
			totalTrips += agg.BreakerTrips
			totalReadmits += agg.BreakerReadmits
		}
		fmt.Println("\norph-ok:  orphans re-placed on a surviving platform; orph-lat: mean sim-seconds to re-place")
		fmt.Println("fw-miss:  miss rate of jobs placed while >=1 platform was impaired")
		fmt.Println("trips/readmits/closes: breaker quarantines, half-open re-admissions, probations closed healthy")
		if *requireTrip && (totalTrips < 1 || totalReadmits < 1) {
			log.Fatalf("require-trip: breaker demonstration failed (trips %d, readmits %d) — want >=1 of each",
				totalTrips, totalReadmits)
		}
	}

	if *feedback {
		switch {
		case *fbInterval > 0 && *fbEvery > 0:
			fmt.Printf("\n-- online feedback (bound policy, observe every %d completions or %.1f sim-seconds) --\n", *fbEvery, *fbInterval)
		case *fbInterval > 0:
			fmt.Printf("\n-- online feedback (bound policy, observe every %.1f sim-seconds) --\n", *fbInterval)
		default:
			fmt.Printf("\n-- online feedback (bound policy, observe every %d completions) --\n", *fbEvery)
		}
		bound, err := sched.ParsePolicy("bound", *eps, 0)
		if err != nil {
			log.Fatal(err)
		}
		// The no-feedback arm is seeded identically to the sweep, so reuse
		// its aggregate when the sweep already ran the bound policy.
		without, ok := sweep[bound.Name()]
		if !ok {
			_, without, err = sched.StreamTrials(*trials, true, runTrial(bound, nil, 0, 0, nil))
			if err != nil {
				log.Fatal(err)
			}
		}
		v0 := pred.Version()
		// Feedback trials run sequentially: Observe mutates the shared
		// predictor, so this arm is one continually-learning deployment.
		_, with, err := sched.StreamTrials(*trials, false, runTrial(bound, pred, *fbEvery, *fbInterval, nil))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("without feedback: miss-rate %5.1f%%  headroom %5.1f%%\n",
			100*without.MissRate, 100*without.AvgHeadroom)
		fmt.Printf("with feedback:    miss-rate %5.1f%%  headroom %5.1f%%  (observed %d runtimes, snapshot v%d -> v%d)\n",
			100*with.MissRate, 100*with.AvgHeadroom, with.Observed, v0, pred.Version())
		if with.PostPlaced == 0 {
			fmt.Printf("no placements landed after an Observe update (%d measurements observed; "+
				"need >= %d completions per flush) — no post-update miss-rate to report\n",
				with.Observed, *fbEvery)
			return
		}
		verdict := "AT OR UNDER"
		if with.PostMissRate > *eps {
			verdict = "ABOVE"
		}
		fmt.Printf("post-update miss-rate %.1f%% over %d placements — %s the eps budget (%.0f%%)\n",
			100*with.PostMissRate, with.PostPlaced, verdict, 100**eps)
	}
}

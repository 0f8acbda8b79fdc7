// Orchestrator: deadline-aware workload placement across a heterogeneous
// edge cluster — the paper's motivating application (§1), on the
// event-driven orchestration engine.
//
// A wave of jobs arrives, each with a completion deadline. The scheduler
// scores every candidate platform for the whole wave in one batched
// conformal-bound call (a per-placement probabilistic guarantee: each job
// exceeds its budget with probability at most eps), places the wave, and
// then the cluster evolves: completed jobs free their colocation slots,
// their measured runtimes are fed back into the predictor (Observe), and
// a second wave is placed against the updated snapshot — the full
// predict → place → measure → observe loop.
package main

import (
	"fmt"
	"log"
	"math/rand"

	pitot "repro"
	"repro/internal/sched"
	"repro/internal/wasmcluster"
)

const eps = 0.1 // acceptable per-job deadline-miss probability

func main() {
	log.SetFlags(0)

	clusterCfg := pitot.DatasetConfig{
		Seed: 21, NumWorkloads: 40, MaxDevices: 8, SetsPerDegree: 25,
	}
	cluster := wasmcluster.New(clusterCfg)
	ds := cluster.Generate()
	cfg := pitot.DefaultModelConfig(21)
	cfg.Steps = 1000
	pred, err := pitot.Train(ds, pitot.Options{Seed: 21, Model: &cfg, EnableBounds: true})
	if err != nil {
		log.Fatal(err)
	}

	bound, err := sched.ParsePolicy("bound", eps, 0)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sched.New(sched.Config{
		NumPlatforms:  ds.NumPlatforms(),
		MaxColocation: 4,
		Strategy:      sched.BestFit{},
	}, bound, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: policy %s, strategy best-fit, deadline-miss budget %.0f%%\n\n",
		bound.Name(), 100*eps)

	wave1 := []sched.Job{
		{Workload: 0, Deadline: 2.0}, {Workload: 3, Deadline: 5.0},
		{Workload: 5, Deadline: 1.0}, {Workload: 8, Deadline: 10.0},
		{Workload: 11, Deadline: 3.0}, {Workload: 14, Deadline: 2.5},
		{Workload: 17, Deadline: 8.0}, {Workload: 20, Deadline: 1.5},
	}
	fmt.Printf("wave 1: placing %d jobs across %d platforms (one batched bound call)\n", len(wave1), ds.NumPlatforms())
	as := s.PlaceAll(wave1)
	report(ds, as)

	// The cluster runs: completed jobs free their slots and report their
	// measured runtimes back to the predictor.
	mrng := rand.New(rand.NewSource(99))
	var ms []sched.Measurement
	for _, a := range as {
		if !a.Placed() {
			continue
		}
		runtime := cluster.MeasureSeconds(mrng, a.Job.Workload, a.Platform, a.Interferers)
		ms = append(ms, sched.Measurement{
			Workload: a.Job.Workload, Platform: a.Platform,
			Interferers: a.Interferers, Seconds: runtime,
		})
		if err := s.Complete(a.ID); err != nil {
			log.Fatal(err)
		}
	}
	v0 := pred.Version()
	if err := pred.ObserveSeconds(ms); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompleted %d jobs; fed %d measured runtimes back (snapshot v%d -> v%d)\n",
		len(ms), len(ms), v0, pred.Version())

	wave2 := []sched.Job{
		{Workload: 23, Deadline: 4.0}, {Workload: 26, Deadline: 6.0},
		{Workload: 5, Deadline: 1.2}, {Workload: 31, Deadline: 2.0},
	}
	fmt.Printf("\nwave 2: placing %d jobs against the updated snapshot (slots freed by completions)\n", len(wave2))
	report(ds, s.PlaceAll(wave2))
}

func report(ds *pitot.Dataset, as []sched.Assignment) {
	for _, a := range as {
		if !a.Placed() {
			fmt.Printf("  job %-14s deadline %5.1fs: NO feasible placement\n",
				ds.WorkloadNames[a.Job.Workload], a.Job.Deadline)
			continue
		}
		fmt.Printf("  job %-14s deadline %5.1fs -> %-28s bound %.3fs (co-located: %d)\n",
			ds.WorkloadNames[a.Job.Workload], a.Job.Deadline,
			ds.PlatformNames[a.Platform], a.Budget, len(a.Interferers))
	}
}

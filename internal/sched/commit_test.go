package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// seat commits job onto platform p straight through the store, against a
// view copied in the same lock hold: a reservation the scheduler's chunk
// did not make.
func seat(t *testing.T, st *SlotStore, p int, job Job) JobID {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	var v platformView
	st.viewLocked(p, &v)
	id, _, status := st.reserveLocked(p, &v, job)
	if status != reserveOK {
		t.Fatalf("seat on platform %d: status %v", p, status)
	}
	return id
}

// Conflict-retry conservation under the race detector: concurrent callers
// of the one engine, each completing its own placements between waves,
// and a platform failer must never double-commit a slot and never lose a
// job — every arrival ends exactly once as completed, unplaced (including
// conflict-shed), or rejected, and every placement completes or is
// orphaned. Completions and the Fail/Recover churn, which runs until the
// callers finish, land mid-chunk, so commits can conflict and retry.
func TestReplicaConservationConcurrent(t *testing.T) {
	const (
		nP        = 6
		coloc     = 2
		callers   = 4
		perCaller = 120
		wave      = 5
	)
	base := make([]float64, nP)
	for i := range base {
		base[i] = 0.5 + 0.3*float64(i)
	}
	rs := mustNew(t,
		Config{NumPlatforms: nP, MaxColocation: coloc, WaveChunk: 2},
		policy("bound"),
		loop(variedPred{base}))

	var (
		placed, unplaced, rejected, shed atomic.Int64
		completed, orphaned              atomic.Int64
		seen                             sync.Map // JobID -> struct{} (double-commit detector)
		wg                               sync.WaitGroup
		stop                             = make(chan struct{})
	)
	// Live slot invariant sampler: no published platform state may ever
	// exceed the colocation cap.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for p := 0; p < nP; p++ {
				if n := len(rs.Residents(p)); n > coloc {
					t.Errorf("platform %d oversubscribed: %d residents > cap %d", p, n, coloc)
					return
				}
			}
		}
	}()
	for ci := 0; ci < callers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			var mine []JobID
			for i := 0; i < perCaller; i += wave {
				jobs := make([]Job, wave)
				for j := range jobs {
					jobs[j] = Job{Workload: rng.Intn(20), Deadline: 1e9}
				}
				for _, a := range rs.PlaceAll(jobs) {
					switch {
					case a.Rejected:
						rejected.Add(1)
					case !a.Placed():
						unplaced.Add(1)
						if a.Reason == ReasonConflict {
							shed.Add(1)
						}
					default:
						if _, dup := seen.LoadOrStore(a.ID, struct{}{}); dup {
							t.Errorf("job ID %d committed twice", a.ID)
						}
						placed.Add(1)
						mine = append(mine, a.ID)
					}
				}
				// Complete our own backlog so slots churn under the other
				// callers' chunks.
				for len(mine) > wave {
					id := mine[0]
					mine = mine[1:]
					if err := rs.Complete(id); err == nil {
						completed.Add(1)
					}
				}
			}
			for _, id := range mine {
				if err := rs.Complete(id); err == nil {
					completed.Add(1)
				}
			}
		}(ci)
	}
	// Failure churn: one platform cycles Down and back half-open/healthy
	// for as long as the callers place into it.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			orphans, err := rs.Fail(2)
			if err != nil {
				t.Errorf("Fail: %v", err)
				return
			}
			orphaned.Add(int64(len(orphans)))
			if err := rs.Recover(2); err != nil {
				t.Errorf("Recover: %v", err)
				return
			}
			if err := rs.Recover(2); err != nil { // probation -> healthy
				t.Errorf("Recover: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-samplerDone
	<-churnDone

	arrived := int64(callers * perCaller)
	if got := placed.Load() + unplaced.Load() + rejected.Load(); got != arrived {
		t.Fatalf("arrival conservation violated: placed %d + unplaced %d + rejected %d = %d, want %d",
			placed.Load(), unplaced.Load(), rejected.Load(), got, arrived)
	}
	if got := completed.Load() + orphaned.Load(); got != placed.Load() {
		t.Fatalf("placement conservation violated: completed %d + orphaned %d = %d, want placed %d",
			completed.Load(), orphaned.Load(), got, placed.Load())
	}
	if rs.InFlight() != 0 {
		t.Fatalf("in-flight not drained: %d", rs.InFlight())
	}
	for p := 0; p < nP; p++ {
		if n := len(rs.Residents(p)); n != 0 {
			t.Fatalf("platform %d still holds %d residents after drain", p, n)
		}
	}
	cs := rs.ConflictStats()
	if cs.Attempts < uint64(placed.Load()) {
		t.Fatalf("attempts %d < commits %d", cs.Attempts, placed.Load())
	}
	t.Logf("attempts %d conflicts %d (%.2f%%) shed %d", cs.Attempts, cs.Conflicts,
		100*float64(cs.Conflicts)/float64(cs.Attempts), cs.Shed)
}

// A deterministic conflict for each event that can land between a
// chunk's view copy and its commit: the reserveGap hook fires one
// competing event on the chosen platform — a reservation made straight
// through the store, a completion, a failure or a degradation — so the
// first reservation must lose, count one conflict, refresh, and place the
// job on retry, with every job accounted for.
func TestReplicaConflictRetryDeterministic(t *testing.T) {
	for _, event := range []string{"place", "complete", "fail", "degrade"} {
		t.Run(event, func(t *testing.T) {
			const nP = 3
			rs := mustNew(t,
				Config{NumPlatforms: nP, MaxColocation: 4},
				policy("mean"),
				loop(variedPred{[]float64{1, 2, 3}}))
			// One resident per platform (least-loaded spreads them), so
			// every platform has a job to complete or orphan.
			residentOn := map[int]JobID{}
			for w := 0; w < nP; w++ {
				a := rs.Place(Job{Workload: w, Deadline: 1e9})
				if !a.Placed() {
					t.Fatalf("setup placement %d: %+v", w, a)
				}
				residentOn[a.Platform] = a.ID
			}
			placed, completed, orphaned := nP, 0, 0
			hit := -1
			rs.reserveGap = func(p int) {
				rs.reserveGap = nil
				hit = p
				switch event {
				case "place":
					seat(t, rs.SlotStore, p, Job{Workload: 7, Deadline: 1e9})
					placed++
				case "complete":
					if err := rs.Complete(residentOn[p]); err != nil {
						t.Fatal(err)
					}
					completed++
				case "fail":
					orphans, err := rs.Fail(p)
					if err != nil || len(orphans) != 1 {
						t.Fatalf("Fail(%d): %v, %v", p, orphans, err)
					}
					orphaned++
				case "degrade":
					if err := rs.Degrade(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			a := rs.Place(Job{Workload: 1, Deadline: 1e9})
			if hit < 0 {
				t.Fatal("the competing event never fired")
			}
			if !a.Placed() {
				t.Fatalf("job not placed after the conflict retry: %+v", a)
			}
			placed++
			if event == "fail" && a.Platform == hit {
				t.Fatalf("job placed on the platform that failed: %+v", a)
			}
			if cs := rs.ConflictStats(); cs.Conflicts != 1 || cs.Shed != 0 {
				t.Fatalf("want exactly 1 conflict and no shed, got %+v", cs)
			}
			if got := completed + orphaned + rs.InFlight(); got != placed {
				t.Fatalf("conservation: completed %d + orphaned %d + in flight %d != placed %d",
					completed, orphaned, rs.InFlight(), placed)
			}
		})
	}
}

// Exhausting the retry budget sheds the job with ReasonConflict after
// exactly maxCommitRetries+1 conflicts, keeping arrival accounting intact.
func TestReplicaConflictShed(t *testing.T) {
	base := []float64{1, 2}
	rs := mustNew(t,
		Config{NumPlatforms: 2, MaxColocation: 2},
		policy("mean"),
		loop(variedPred{base}))
	rs.reserveGap = func(p int) {
		// Sabotage every attempt: move the platform's version underneath
		// the reservation with a health wobble that leaves it healthy.
		if err := rs.Degrade(p); err != nil {
			t.Fatal(err)
		}
		if err := rs.Recover(p); err != nil {
			t.Fatal(err)
		}
	}
	a := rs.Place(Job{Workload: 1, Deadline: 1e9})
	if a.Placed() || a.Reason != ReasonConflict {
		t.Fatalf("want conflict shed, got %+v", a)
	}
	cs := rs.ConflictStats()
	if cs.Shed != 1 || cs.Conflicts != maxCommitRetries+1 || cs.Attempts != cs.Conflicts {
		t.Fatalf("conflict accounting: %+v, want %d conflicts and one shed", cs, maxCommitRetries+1)
	}
	if rs.InFlight() != 0 {
		t.Fatalf("shed job leaked in-flight: %d", rs.InFlight())
	}
}

// The slot store's exactly-once retirement contract under the race
// detector: Fail racing Complete on the same residents must retire every
// job exactly once — as a completion or an orphan, never both, never
// neither.
func TestSlotStoreFailCompleteRaces(t *testing.T) {
	for round := 0; round < 30; round++ {
		st := newSlotStore(Config{NumPlatforms: 1, MaxColocation: 8})
		var ids []JobID
		for i := 0; i < 8; i++ {
			ids = append(ids, seat(t, st, 0, Job{Workload: i, Deadline: 1}))
		}
		var completedN, orphanedN atomic.Int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if err := st.Complete(id); err == nil {
					completedN.Add(1)
				}
			}
		}()
		go func() {
			defer wg.Done()
			orphans, err := st.Fail(0)
			if err != nil {
				t.Errorf("Fail: %v", err)
				return
			}
			orphanedN.Add(int64(len(orphans)))
		}()
		wg.Wait()
		if got := completedN.Load() + orphanedN.Load(); got != int64(len(ids)) {
			t.Fatalf("round %d: retired %d jobs (completed %d + orphaned %d), want %d",
				round, got, completedN.Load(), orphanedN.Load(), len(ids))
		}
		if st.InFlight() != 0 {
			t.Fatalf("round %d: in-flight %d after drain", round, st.InFlight())
		}
	}
}

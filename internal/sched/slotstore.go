package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// platformSlots is one platform's shared cluster state: its residents plus
// its failure-lifecycle core, published as an immutable value behind an
// atomic pointer. Every mutation clones the value and bumps version, so a
// replica that scored a wave against version v detects any intervening
// commit — a placement, completion, or health event — by a version
// mismatch at reserve time.
type platformSlots struct {
	version   uint64
	residents []placedJob
	// ks is the residents' workload indices, cached at mutation time so
	// every view refresh and every Assignment.Interferers can share it
	// without allocating — the published value is immutable, so aliasing
	// is safe. Mutators that change residents must call refreshKS.
	ks []int
	healthCore
}

// clone copies the state for a mutation, bumping the version. The resident
// slice and breaker ring are deep-copied (with one spare resident slot, so
// a following commit-append never reallocates); the published value is
// never mutated in place. ks still aliases the source — callers that
// change residents must refreshKS.
func (st *platformSlots) clone() *platformSlots {
	n := *st
	n.version++
	n.residents = make([]placedJob, len(st.residents), len(st.residents)+1)
	copy(n.residents, st.residents)
	if st.outcomes != nil {
		n.outcomes = append([]bool(nil), st.outcomes...)
	}
	return &n
}

// refreshKS rebuilds the cached workload snapshot after a residents
// mutation (never mutating the previous snapshot, which published views
// may still alias).
func (st *platformSlots) refreshKS() {
	if len(st.residents) == 0 {
		st.ks = nil
		return
	}
	ks := make([]int, len(st.residents))
	for i, r := range st.residents {
		ks[i] = r.job.Workload
	}
	st.ks = ks
}

// workloads returns the cached workload-index snapshot of the residents
// (nil when empty), the replica's counterpart of Scheduler.ks. The
// returned slice is shared and immutable — callers must not mutate it.
func (st *platformSlots) workloads() []int { return st.ks }

// colocCap is the platform's effective colocation cap: one trial job during
// half-open probation, maxColocation otherwise (Scheduler.colocCapLocked).
func (st *platformSlots) colocCap(maxColocation int) int {
	if st.probation {
		return 1
	}
	return maxColocation
}

// reserveStatus is the outcome of one optimistic slot reservation.
type reserveStatus uint8

const (
	// reserveOK: the slot was committed; the returned state includes the
	// new resident.
	reserveOK reserveStatus = iota
	// reserveConflict: the platform's version moved past the scored
	// snapshot (or the CAS lost a race); the caller should refresh its view
	// from the returned state, re-score, and retry.
	reserveConflict
	// reserveAdmission: the cluster-wide MaxInFlight bound refused the job.
	reserveAdmission
)

// SlotStore is the shared cluster state N scheduler replicas place into:
// per-platform resident sets and health behind atomic pointers (mutated by
// clone + compare-and-swap), a lock-free job index, and cluster-wide
// admission. Replicas score waves optimistically against a snapshot of
// this state and reserve colocation slots with reserve; a version mismatch
// at commit is a conflict the replica retries after refreshing its view.
//
// The failure lifecycle mirrors Scheduler's exactly-once contract: Fail
// orphans each resident exactly once even when completions race it (the
// byJob LoadAndDelete winner retires the job), Complete on a retired or
// reservation-burned ID returns ErrJobCompleted, and breaker outcomes feed
// the same healthCore state machine the scheduler uses.
type SlotStore struct {
	numPlatforms  int
	maxColocation int
	maxInFlight   int
	breaker       BreakerConfig

	plats []atomic.Pointer[platformSlots]

	// byJob maps a live JobID to its platform. The LoadAndDelete winner —
	// a completer or a Fail orphaning the platform — is the one retirement
	// of record for that job.
	byJob sync.Map

	// nextID allocates IDs before the commit CAS; an ID burned by a lost
	// CAS is never resident anywhere, and Complete on it reports
	// ErrJobCompleted (indistinguishable from an already-retired job, which
	// is what it morally is).
	nextID atomic.Uint64

	// inFlight counts committed-but-not-retired jobs and doubles as the
	// MaxInFlight admission token pool.
	inFlight atomic.Int64

	// Failure-lifecycle counters (FailureStats).
	fails, degrades, recovers, orphaned  atomic.Uint64
	trips, readmissions, closes          atomic.Uint64
	reserveAttempts, reserveConflictsCnt atomic.Uint64

	// reserveGap, when non-nil, runs between the version check and the
	// commit CAS (test hook: deterministic conflict interleavings).
	reserveGap func(p int)

	// rec is the optional flight recorder (Config.Recorder): the store is
	// the single retirement of record for replicated placements, so
	// reserve/complete/orphan/readmit events are emitted here, once,
	// regardless of which replica drove them.
	rec *obs.Recorder
}

// NewSlotStore builds the shared state for cfg's cluster. Only the
// capacity, admission, and breaker fields of cfg apply; scoring
// configuration lives with the replicas.
func NewSlotStore(cfg Config) (*SlotStore, error) {
	if cfg.NumPlatforms <= 0 {
		return nil, fmt.Errorf("sched: no platforms")
	}
	if cfg.MaxColocation <= 0 {
		cfg.MaxColocation = 4
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("sched: negative MaxInFlight")
	}
	st := &SlotStore{
		numPlatforms:  cfg.NumPlatforms,
		maxColocation: cfg.MaxColocation,
		maxInFlight:   cfg.MaxInFlight,
		breaker:       cfg.Breaker.withDefaults(),
		plats:         make([]atomic.Pointer[platformSlots], cfg.NumPlatforms),
		rec:           cfg.Recorder,
	}
	for p := range st.plats {
		st.plats[p].Store(&platformSlots{})
	}
	return st, nil
}

func (st *SlotStore) checkPlatform(p int) error {
	if p < 0 || p >= st.numPlatforms {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrPlatformOutOfRange, p, st.numPlatforms)
	}
	return nil
}

// load returns platform p's current published state.
func (st *SlotStore) load(p int) *platformSlots { return st.plats[p].Load() }

// reserve optimistically commits job onto platform p, valid only while p's
// state is still exactly the version the caller scored against. On success
// the returned state is the committed one (resident appended, version
// bumped). reserveConflict means the snapshot went stale — any intervening
// placement, completion, or health event on p — and returns the current
// state so the caller can refresh, re-score, and retry.
func (st *SlotStore) reserve(p int, expect uint64, job Job) (JobID, *platformSlots, reserveStatus) {
	st.reserveAttempts.Add(1)
	cur := st.plats[p].Load()
	if cur.version != expect {
		st.reserveConflictsCnt.Add(1)
		return 0, cur, reserveConflict
	}
	// A version match means cur is the exact state the caller scored, so
	// placeability and the colocation cap were already checked — re-check
	// defensively so a buggy caller can never oversubscribe a slot.
	if !cur.state.Placeable() || len(cur.residents) >= cur.colocCap(st.maxColocation) {
		st.reserveConflictsCnt.Add(1)
		return 0, cur, reserveConflict
	}
	if st.maxInFlight > 0 {
		if n := st.inFlight.Add(1); n > int64(st.maxInFlight) {
			st.inFlight.Add(-1)
			return 0, cur, reserveAdmission
		}
	} else {
		st.inFlight.Add(1)
	}
	id := JobID(st.nextID.Add(1))
	next := cur.clone()
	next.residents = append(next.residents, placedJob{id: id, job: job})
	next.refreshKS()
	if st.reserveGap != nil {
		st.reserveGap(p)
	}
	if !st.plats[p].CompareAndSwap(cur, next) {
		st.inFlight.Add(-1)
		st.reserveConflictsCnt.Add(1)
		return 0, st.plats[p].Load(), reserveConflict
	}
	st.byJob.Store(id, p)
	if st.rec != nil {
		st.rec.Record(obs.Event{Kind: obs.EvReserve, Job: uint64(id), ID: uint64(id),
			Platform: int32(p)})
	}
	return id, next, reserveOK
}

// retire removes id from the store, returning the platform it ran on. The
// byJob LoadAndDelete makes the caller the single retirement of record; a
// concurrent Fail that already swapped the resident set out just leaves
// nothing to remove here.
func (st *SlotStore) retire(id JobID) (int, error) {
	v, ok := st.byJob.LoadAndDelete(id)
	if !ok {
		if id > 0 && uint64(id) <= st.nextID.Load() {
			return -1, ErrJobCompleted
		}
		return -1, ErrUnknownJob
	}
	p := v.(int)
	for {
		cur := st.plats[p].Load()
		idx := -1
		for i := range cur.residents {
			if cur.residents[i].id == id {
				idx = i
				break
			}
		}
		if idx < 0 {
			// A racing Fail emptied the platform after we won the
			// retirement; the slot is already free.
			break
		}
		next := cur.clone()
		next.residents = append(next.residents[:idx], next.residents[idx+1:]...)
		next.refreshKS()
		if st.plats[p].CompareAndSwap(cur, next) {
			break
		}
	}
	st.inFlight.Add(-1)
	if st.rec != nil {
		st.rec.Record(obs.Event{Kind: obs.EvComplete, Job: uint64(id), ID: uint64(id),
			Platform: int32(p)})
	}
	return p, nil
}

// Complete frees the colocation slot of a placed job (Scheduler.Complete
// semantics: ErrJobCompleted for retired or burned IDs, ErrUnknownJob for
// IDs never allocated).
func (st *SlotStore) Complete(id JobID) error {
	_, err := st.retire(id)
	return err
}

// CompleteOutcome is Complete plus a deadline-outcome report feeding the
// platform's circuit breaker; tripped reports a quarantine trip.
func (st *SlotStore) CompleteOutcome(id JobID, miss bool) (tripped bool, err error) {
	p, err := st.retire(id)
	if err != nil {
		return false, err
	}
	for {
		cur := st.plats[p].Load()
		if cur.state == Down || cur.state == Quarantined {
			return false, nil
		}
		next := cur.clone()
		tripped, closed := next.noteOutcome(miss, st.breaker)
		if st.plats[p].CompareAndSwap(cur, next) {
			if tripped {
				st.trips.Add(1)
			}
			if closed {
				st.closes.Add(1)
			}
			return tripped, nil
		}
	}
}

// Fail marks platform p Down and orphans its residents exactly once: the
// state swap stops new reservations (their CAS loses), then each former
// resident is retired — unless a concurrent completer won that job's
// retirement first, in which case it is that completer's, not an orphan.
func (st *SlotStore) Fail(p int) ([]Orphan, error) {
	if err := st.checkPlatform(p); err != nil {
		return nil, err
	}
	var old *platformSlots
	for {
		cur := st.plats[p].Load()
		if cur.state == Down {
			return nil, nil
		}
		next := cur.clone()
		next.fail()
		next.residents, next.ks = nil, nil
		if st.plats[p].CompareAndSwap(cur, next) {
			old = cur
			break
		}
	}
	st.fails.Add(1)
	var orphans []Orphan
	for _, r := range old.residents {
		if _, ok := st.byJob.LoadAndDelete(r.id); !ok {
			continue
		}
		st.inFlight.Add(-1)
		orphans = append(orphans, Orphan{ID: r.id, Job: r.job})
		if st.rec != nil {
			st.rec.Record(obs.Event{Kind: obs.EvOrphan, Job: uint64(r.id), ID: uint64(r.id),
				Platform: int32(p)})
		}
	}
	st.orphaned.Add(uint64(len(orphans)))
	return orphans, nil
}

// Degrade marks platform p Degraded (Scheduler.Degrade semantics).
func (st *SlotStore) Degrade(p int) error {
	if err := st.checkPlatform(p); err != nil {
		return err
	}
	for {
		cur := st.plats[p].Load()
		if cur.state == Down || cur.state == Quarantined {
			return fmt.Errorf("%w: platform %d is %s", ErrPlatformUnavailable, p, cur.state)
		}
		if cur.state == Degraded && !cur.probation {
			return nil
		}
		next := cur.clone()
		applied := next.degrade()
		if st.plats[p].CompareAndSwap(cur, next) {
			if applied {
				st.degrades.Add(1)
			}
			return nil
		}
	}
}

// Recover advances platform p toward Healthy (Scheduler.Recover
// semantics: half-open probation from Down/Quarantined, closed from
// Degraded, no-op from Healthy).
func (st *SlotStore) Recover(p int) error {
	if err := st.checkPlatform(p); err != nil {
		return err
	}
	for {
		cur := st.plats[p].Load()
		if cur.state == Healthy {
			return nil
		}
		next := cur.clone()
		readmitted, closed := next.recover(st.breaker.Probation)
		if st.plats[p].CompareAndSwap(cur, next) {
			st.recovers.Add(1)
			if readmitted {
				st.readmissions.Add(1)
				if st.rec != nil {
					st.rec.Record(obs.Event{Kind: obs.EvReadmit, Platform: int32(p)})
				}
			}
			if closed {
				st.closes.Add(1)
			}
			return nil
		}
	}
}

// Health returns platform p's current state (Healthy for out-of-range
// indices, like Scheduler.Health).
func (st *SlotStore) Health(p int) HealthState {
	if p < 0 || p >= st.numPlatforms {
		return Healthy
	}
	return st.plats[p].Load().state
}

// HealthSnapshot returns a copy of every platform's health state.
func (st *SlotStore) HealthSnapshot() []HealthState {
	out := make([]HealthState, st.numPlatforms)
	for p := range out {
		out[p] = st.plats[p].Load().state
	}
	return out
}

// Impaired returns the number of platforms not currently Healthy.
func (st *SlotStore) Impaired() int {
	n := 0
	for p := 0; p < st.numPlatforms; p++ {
		if st.plats[p].Load().state != Healthy {
			n++
		}
	}
	return n
}

// FailureStats returns the failure-lifecycle counters.
func (st *SlotStore) FailureStats() FailureStats {
	return FailureStats{
		Fails:        st.fails.Load(),
		Degrades:     st.degrades.Load(),
		Recovers:     st.recovers.Load(),
		Orphaned:     st.orphaned.Load(),
		Trips:        st.trips.Load(),
		Readmissions: st.readmissions.Load(),
		Closes:       st.closes.Load(),
	}
}

// InFlight returns the number of placed jobs that have not completed.
func (st *SlotStore) InFlight() int {
	n := st.inFlight.Load()
	if n < 0 {
		// Transient commit-then-retire interleavings never publish a
		// negative count; guard the read anyway.
		return 0
	}
	return int(n)
}

// Residents returns a copy of the workloads currently placed on platform
// p; mutating it never affects store state.
func (st *SlotStore) Residents(p int) []int {
	if p < 0 || p >= st.numPlatforms {
		return nil
	}
	ks := st.plats[p].Load().workloads()
	if ks == nil {
		return nil
	}
	return append([]int(nil), ks...)
}

// Load returns the resident count of platform p (shard-rebalancing input).
func (st *SlotStore) Load(p int) int {
	if p < 0 || p >= st.numPlatforms {
		return 0
	}
	return len(st.plats[p].Load().residents)
}

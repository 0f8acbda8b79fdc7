package sched

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// placedJob is one resident of a platform: the job's identity plus the
// job itself, kept whole so a platform failure can orphan its residents
// back into the retry path with deadlines intact.
type placedJob struct {
	id  JobID
	job Job
}

// platformSlots is one platform's cluster state, guarded by the store
// mutex: its residents, their workload indices, its failure-lifecycle core
// and a version. Every resident-set or health change bumps the version, so
// a chunk that scored against version v detects any intervening
// completion or health event at reserve time, and a score cell stamped
// with v is provably current for the interference state.
type platformSlots struct {
	version   uint64
	residents []placedJob
	// ks is the residents' workload indices in resident order, a row
	// capped at MaxColocation: views copy it, and each commit copies it as
	// the job's interference set.
	ks []int
	healthCore
}

// colocCap is the platform's effective colocation cap: one trial job
// during half-open probation, maxColocation otherwise.
func (ps *platformSlots) colocCap(maxColocation int) int {
	if ps.probation {
		return 1
	}
	return maxColocation
}

// reserveStatus is the outcome of one version-checked slot reservation.
type reserveStatus uint8

const (
	// reserveOK: the slot was committed and the caller's view refreshed.
	reserveOK reserveStatus = iota
	// reserveConflict: the platform's version moved past the scored view;
	// the caller should refresh the view, re-score, and retry.
	reserveConflict
	// reserveAdmission: the cluster-wide MaxInFlight bound refused the job.
	reserveAdmission
)

// SlotStore is the cluster state the Scheduler places into: per-platform
// residents, health and versions, the job index and the failure counters,
// all under one mutex and mutated in place. The Scheduler copies every
// platform's view under the mutex at chunk start, scores and selects
// outside it, and commits each placement with a version-checked reserve
// under it. The lifecycle methods (Complete, CompleteOutcome, Fail,
// Degrade, Recover) take only this mutex, so they never wait for a
// chunk's scoring; a reservation scored before them conflicts and
// retries.
type SlotStore struct {
	maxColocation int
	maxInFlight   int
	breaker       BreakerConfig

	// events is the optional flight recorder (Config.Recorder): complete,
	// orphan and readmit events are emitted here, once, whichever caller
	// drove them.
	events *obs.Recorder

	// reserveGap, when non-nil, runs at the start of a reservation, before
	// the version check (test hook: deterministic conflict interleavings).
	reserveGap func(p int)

	mu         sync.Mutex
	plats      []platformSlots
	platformOf map[JobID]int
	nextID     JobID
	stats      FailureStats
	// attempts and conflicts count reservations and the ones refused for
	// a stale version (ConflictStats).
	attempts, conflicts uint64
}

// newSlotStore builds the state for cfg's cluster; cfg has been validated
// and defaulted by New.
func newSlotStore(cfg Config) *SlotStore {
	nP, mc := cfg.NumPlatforms, cfg.MaxColocation
	st := &SlotStore{
		maxColocation: mc,
		maxInFlight:   cfg.MaxInFlight,
		breaker:       cfg.Breaker.withDefaults(),
		events:        cfg.Recorder,
		plats:         make([]platformSlots, nP),
		platformOf:    make(map[JobID]int),
	}
	buf := make([]int, nP*mc)
	for p := range st.plats {
		st.plats[p].ks = buf[p*mc : p*mc : (p+1)*mc]
	}
	return st
}

func (st *SlotStore) checkPlatform(p int) error {
	if p < 0 || p >= len(st.plats) {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrPlatformOutOfRange, p, len(st.plats))
	}
	return nil
}

// viewLocked copies platform p's state into v, the resident workloads into
// v's own row, so the caller can score against it after the mutex is
// released.
func (st *SlotStore) viewLocked(p int, v *platformView) {
	ps := &st.plats[p]
	*v = platformView{
		ver:       ps.version,
		ks:        append(v.ks[:0], ps.ks...),
		load:      len(ps.residents),
		cap:       ps.colocCap(st.maxColocation),
		placeable: ps.state.Placeable(),
		degraded:  ps.state == Degraded,
	}
}

// admits reports whether MaxInFlight lets another job in; reserveLocked
// checks it again at commit.
func (st *SlotStore) admits() bool {
	return st.maxInFlight <= 0 || st.InFlight() < st.maxInFlight
}

// reserveLocked commits job onto platform p if p is still at the version v
// was copied at, then refreshes v to the committed state. It returns the
// job's ID and a copy of the interference set the job was scored under.
// reserveConflict means a placement, completion or health event moved p
// since v was copied; v is left for the caller to refresh.
func (st *SlotStore) reserveLocked(p int, v *platformView, job Job) (JobID, []int, reserveStatus) {
	st.attempts++
	ps := &st.plats[p]
	if ps.version != v.ver {
		st.conflicts++
		return 0, nil, reserveConflict
	}
	if st.maxInFlight > 0 && len(st.platformOf) >= st.maxInFlight {
		return 0, nil, reserveAdmission
	}
	var inter []int
	if len(ps.ks) > 0 {
		inter = append([]int(nil), ps.ks...)
	}
	st.nextID++
	id := st.nextID
	ps.residents = append(ps.residents, placedJob{id: id, job: job})
	ps.ks = append(ps.ks, job.Workload)
	ps.version++
	st.platformOf[id] = p
	st.viewLocked(p, v)
	return id, inter, reserveOK
}

// Complete frees the colocation slot of a placed job; later placements see
// the vacancy. Returns ErrUnknownJob for IDs never issued and
// ErrJobCompleted for IDs already retired (completed earlier, or orphaned
// by a platform failure) — both typed, so callers can tell a caller bug
// from a benign duplicate.
func (st *SlotStore) Complete(id JobID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, err := st.completeLocked(id)
	return err
}

// completeLocked retires id and frees its slot, returning the platform it
// ran on.
func (st *SlotStore) completeLocked(id JobID) (int, error) {
	p, ok := st.platformOf[id]
	if !ok {
		if id > 0 && id <= st.nextID {
			return -1, ErrJobCompleted
		}
		return -1, ErrUnknownJob
	}
	delete(st.platformOf, id)
	ps := &st.plats[p]
	for i := range ps.residents {
		if ps.residents[i].id == id {
			ps.residents = append(ps.residents[:i], ps.residents[i+1:]...)
			ps.ks = append(ps.ks[:i], ps.ks[i+1:]...)
			ps.version++
			if st.events != nil {
				st.events.Record(obs.Event{Kind: obs.EvComplete, Job: uint64(id), ID: uint64(id),
					Platform: int32(p)})
			}
			return p, nil
		}
	}
	// platformOf and residents are updated together under the mutex; a
	// missing entry would mean corrupted bookkeeping.
	panic("sched: job in platformOf but not in residents")
}

// CompleteOutcome is Complete plus an outcome report for the circuit
// breaker: miss records whether the execution overran its deadline on the
// platform it ran on. The returned tripped flag reports whether this
// outcome tripped the platform into quarantine (threshold crossing, or a
// miss during probation) — callers drive re-admission from it.
func (st *SlotStore) CompleteOutcome(id JobID, miss bool) (tripped bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p, err := st.completeLocked(id)
	if err != nil {
		return false, err
	}
	ps := &st.plats[p]
	tripped, closed := ps.noteOutcome(miss, st.breaker)
	if tripped {
		st.stats.Trips++
	}
	if closed {
		st.stats.Closes++
	}
	if tripped || closed {
		// State transitions only — plain in-window outcomes change nothing a
		// view or score cell depends on.
		ps.version++
	}
	return tripped, nil
}

// Fail marks platform p Down and orphans its residents: every resident
// job's ID is retired (Complete returns ErrJobCompleted) and returned with
// its Job so the caller can reschedule it — the job-conservation contract
// is that each orphan is returned exactly once and nothing else about the
// cluster changes. Failing an already-Down platform is a no-op.
func (st *SlotStore) Fail(p int) ([]Orphan, error) {
	if err := st.checkPlatform(p); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ps := &st.plats[p]
	if !ps.fail() {
		return nil, nil
	}
	st.stats.Fails++
	ps.version++
	if len(ps.residents) == 0 {
		return nil, nil
	}
	orphans := make([]Orphan, len(ps.residents))
	for i, r := range ps.residents {
		orphans[i] = Orphan{ID: r.id, Job: r.job}
		delete(st.platformOf, r.id)
		if st.events != nil {
			st.events.Record(obs.Event{Kind: obs.EvOrphan, Job: uint64(r.id), ID: uint64(r.id),
				Platform: int32(p)})
		}
	}
	ps.residents, ps.ks = ps.residents[:0], ps.ks[:0]
	st.stats.Orphaned += uint64(len(orphans))
	return orphans, nil
}

// Degrade marks platform p Degraded: it keeps its residents and keeps
// accepting placements, but every candidate score is padded by
// Config.DegradedPenalty and strategies prefer healthy platforms at equal
// rank. Degrading a Down or Quarantined platform is an error (recover it
// first); degrading a Degraded platform is a no-op.
func (st *SlotStore) Degrade(p int) error {
	if err := st.checkPlatform(p); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ps := &st.plats[p]
	if ps.state == Down || ps.state == Quarantined {
		return fmt.Errorf("%w: platform %d is %s", ErrPlatformUnavailable, p, ps.state)
	}
	if ps.degrade() {
		st.stats.Degrades++
		ps.version++
	}
	return nil
}

// Recover advances platform p toward Healthy: a Down or Quarantined
// platform re-enters half-open probation (Degraded, colocation capped at
// one trial job, Probation consecutive successes to close); a Degraded
// platform closes to Healthy. Recovering a Healthy platform is a no-op.
func (st *SlotStore) Recover(p int) error {
	if err := st.checkPlatform(p); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ps := &st.plats[p]
	if ps.state == Healthy {
		return nil
	}
	readmitted, closed := ps.recover(st.breaker.Probation)
	st.stats.Recovers++
	ps.version++
	if readmitted {
		st.stats.Readmissions++
		if st.events != nil {
			st.events.Record(obs.Event{Kind: obs.EvReadmit, Platform: int32(p)})
		}
	}
	if closed {
		st.stats.Closes++
	}
	return nil
}

// Health returns platform p's current state (Healthy for out-of-range
// indices; validate with the event methods).
func (st *SlotStore) Health(p int) HealthState {
	if p < 0 || p >= len(st.plats) {
		return Healthy
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.plats[p].state
}

// HealthSnapshot returns a copy of every platform's health state.
func (st *SlotStore) HealthSnapshot() []HealthState {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]HealthState, len(st.plats))
	for p := range st.plats {
		out[p] = st.plats[p].state
	}
	return out
}

// Impaired returns the number of platforms not currently Healthy.
func (st *SlotStore) Impaired() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for p := range st.plats {
		if st.plats[p].state != Healthy {
			n++
		}
	}
	return n
}

// FailureStats returns the failure-lifecycle counters.
func (st *SlotStore) FailureStats() FailureStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// InFlight returns the number of placed jobs that have not completed.
func (st *SlotStore) InFlight() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.platformOf)
}

// Residents returns a copy of the workloads currently placed on platform
// p; mutating it never affects store state.
func (st *SlotStore) Residents(p int) []int {
	if p < 0 || p >= len(st.plats) {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.plats[p].ks...)
}

package sched

import (
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

// Scheduler assigns jobs to platforms with a policy and tracks the live
// cluster state: placements occupy colocation slots until Complete frees
// them. Safe for concurrent use — Place, PlaceAll, Complete, and the
// accessors may be called from any number of goroutines; the cluster state
// is guarded by one mutex while predictor reads stay lock-free inside the
// predictor itself. PlaceAll holds the mutex only one chunk of jobs at a
// time (Config.WaveChunk), so completions and competing placements
// interleave mid-wave instead of stalling behind a long wave.
type Scheduler struct {
	engine

	// breaker is the resolved circuit-breaker tuning.
	breaker BreakerConfig

	mu         sync.Mutex
	residents  [][]placedJob
	platformOf map[JobID]int
	nextID     JobID
	healths    []platformHealth
	stats      FailureStats

	// ks mirrors residents as workload indices, one row per platform
	// capped at MaxColocation, so views and scoring queries share it
	// without allocating. slotVers is each platform's mutation counter,
	// bumped (under mu) by every resident-set or health change, so a score
	// cell stamped with it is provably current for the interference state.
	ks       [][]int
	slotVers []uint64

	// views, plats and table are the wave path's working state (guarded
	// by mu): per-platform views refreshed at chunk start, the platform
	// list 0..NumPlatforms-1, and the score table.
	views []platformView
	plats []int
	table waveTable

	// chunkGap, when non-nil, runs between chunk lock holds of PlaceAll
	// (test hook: deterministic mid-wave interleaving).
	chunkGap func()
}

// New creates a scheduler. The batch scoring path engages automatically
// when pred implements BatchPredictor and policy implements BatchPolicy
// (all built-in policies do), unless cfg.DisableBatch is set; dual-head
// policies (DualPolicy) additionally score through one fused pass when the
// predictor implements FusedPredictor.
func New(cfg Config, policy Policy, pred Predictor) (*Scheduler, error) {
	e, err := newEngine(cfg, policy, pred)
	if err != nil {
		return nil, err
	}
	nP, mc := e.cfg.NumPlatforms, e.cfg.MaxColocation
	s := &Scheduler{
		engine:     e,
		breaker:    cfg.Breaker.withDefaults(),
		residents:  make([][]placedJob, nP),
		platformOf: make(map[JobID]int),
		healths:    make([]platformHealth, nP),
		ks:         make([][]int, nP),
		slotVers:   make([]uint64, nP),
		views:      make([]platformView, nP),
		plats:      make([]int, nP),
		table:      waveTable{nP: nP},
	}
	buf := make([]int, nP*mc)
	for p := range s.ks {
		s.ks[p] = buf[p*mc : p*mc : (p+1)*mc]
		s.plats[p] = p
	}
	return s, nil
}

// ScoreTableStats returns the score table's hit and miss counters.
func (s *Scheduler) ScoreTableStats() ScoreTableStats { return s.table.stats() }

// bumpSlotLocked advances platform p's mutation counter; every
// resident-set or health change must pass through here so score cells
// stamped with the old version can never be served against the new state.
func (s *Scheduler) bumpSlotLocked(p int) { s.slotVers[p]++ }

// Residents returns a copy of the workloads currently placed on platform
// p; mutating it never affects scheduler state.
func (s *Scheduler) Residents(p int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.ks[p]...)
}

// InFlight returns the number of placed jobs that have not completed.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.platformOf)
}

// Place assigns one job: among feasible platforms (score ≤ deadline after
// accounting for the interference the job will experience from residents),
// the configured Strategy picks the winner. The returned assignment is
// unplaced when no platform is feasible, and Rejected when admission
// control refused the job outright (MaxInFlight reached). A one-job wave.
func (s *Scheduler) Place(job Job) Assignment {
	return s.PlaceAll([]Job{job})[0]
}

// PlaceAll places a wave of jobs in arrival order. The wave is processed
// in chunks of Config.WaveChunk jobs, each chunk atomic with respect to
// concurrent Place/Complete and the scheduler lock released between
// chunks: a completion arriving mid-wave lands between chunks, frees its
// slot, and the following chunks see the vacancy — the event loop stays
// responsive under long waves. With no concurrent events, decisions are
// identical to the unchunked wave (and to calling Place per job): each
// chunk scores against the cluster state its first job would see, and
// scores are per-query deterministic, so chunk boundaries never change a
// selection. Health is fixed for a chunk: Fail/Degrade/Recover take the
// same mutex, so they land between chunks, never mid-chunk.
func (s *Scheduler) PlaceAll(jobs []Job) []Assignment {
	return s.placeWave(&s.mu, jobs, s.placeChunkLocked, nil, s.chunkGap)
}

// placeChunkLocked places one chunk under the held lock.
func (s *Scheduler) placeChunkLocked(jobs []Job, out []Assignment) {
	for p := range s.views {
		h := &s.healths[p]
		s.views[p] = platformView{
			ver:       s.slotVers[p],
			ks:        s.ks[p],
			load:      len(s.residents[p]),
			cap:       s.colocCapLocked(p),
			placeable: h.state.Placeable(),
			degraded:  h.state == Degraded,
		}
	}
	s.placeChunk(&s.table, s, jobs, out, s.plats, s.views)
}

// admit implements committer: MaxInFlight admission control.
func (s *Scheduler) admit() bool {
	return s.cfg.MaxInFlight <= 0 || len(s.platformOf) < s.cfg.MaxInFlight
}

// commit implements committer: under the held lock the view is current,
// so the placement always lands. The job's interference set is copied
// here, once per committed assignment.
func (s *Scheduler) commit(p int, job Job) (JobID, []int, reserveStatus) {
	var inter []int
	if len(s.ks[p]) > 0 {
		inter = append([]int(nil), s.ks[p]...)
	}
	s.nextID++
	id := s.nextID
	s.residents[p] = append(s.residents[p], placedJob{id: id, job: job})
	s.ks[p] = append(s.ks[p], job.Workload)
	s.platformOf[id] = p
	s.bumpSlotLocked(p)
	v := &s.views[p]
	v.ver, v.ks, v.load = s.slotVers[p], s.ks[p], len(s.residents[p])
	if s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvPlace, Job: uint64(id), ID: uint64(id),
			Platform: int32(p), Version: s.snapVersion()})
	}
	return id, inter, reserveOK
}

// unplaced implements committer: the shed is recorded.
func (s *Scheduler) unplaced(reason string) {
	if s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ParseReason(reason),
			Platform: -1, Version: s.snapVersion()})
	}
}

// retry implements committer; the locked scheduler never conflicts.
func (s *Scheduler) retry(int, int) bool { return false }

// Complete frees the colocation slot of a placed job; residents change
// over time, so later placements see the vacancy. Returns ErrUnknownJob
// for IDs never issued and ErrJobCompleted for IDs already retired
// (completed earlier, or orphaned by a platform failure) — both typed, so
// callers can tell a caller bug from a benign duplicate without the
// scheduler silently corrupting slot accounting. Under a concurrent
// chunked PlaceAll, Complete waits at most one chunk's scoring, never the
// whole wave.
func (s *Scheduler) Complete(id JobID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.completeLocked(id)
	return err
}

// completeLocked retires id and frees its slot, returning the platform it
// ran on.
func (s *Scheduler) completeLocked(id JobID) (int, error) {
	p, ok := s.platformOf[id]
	if !ok {
		if id > 0 && id <= s.nextID {
			return -1, ErrJobCompleted
		}
		return -1, ErrUnknownJob
	}
	delete(s.platformOf, id)
	rs := s.residents[p]
	for i := range rs {
		if rs[i].id == id {
			s.residents[p] = append(rs[:i], rs[i+1:]...)
			ks := s.ks[p]
			s.ks[p] = append(ks[:i], ks[i+1:]...)
			s.bumpSlotLocked(p)
			if s.rec != nil {
				s.rec.Record(obs.Event{Kind: obs.EvComplete, Job: uint64(id), ID: uint64(id),
					Platform: int32(p)})
			}
			return p, nil
		}
	}
	// platformOf and residents are updated together under the lock; a
	// missing entry would mean corrupted bookkeeping.
	panic("sched: job in platformOf but not in residents")
}

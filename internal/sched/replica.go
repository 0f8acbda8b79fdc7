package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Replica is one scheduler frontend of a ReplicaSet: it scores waves
// against a private snapshot of the shared SlotStore and commits each
// placement with an optimistic slot reservation. A version conflict at
// commit (another replica placed, a completion landed, a health event
// fired) refreshes the platform's view, re-scores the affected column, and
// retries selection with bounded backoff, up to MaxCommitRetries before the
// job is shed with ReasonConflict.
//
// With one replica and no concurrent store mutations, placements are
// bitwise identical to Scheduler.PlaceAll: both run the same wave path
// (engine.placeChunk) over views of the same state, and conflict paths
// never execute.
//
// A Replica is safe for concurrent use; concurrent PlaceAll calls on the
// same replica serialize on its private mutex (use distinct replicas for
// parallel placement). Each replica owns its score table, guarded by that
// mutex: its cells are stamped with SlotStore versions, so a view adopted
// from a conflict restamps them with no extra locking.
type Replica struct {
	set *ReplicaSet
	idx int

	mu    sync.Mutex
	views []platformView // indexed by platform
	table waveTable

	// conflictState is the store state the last refused reservation
	// returned, adopted by retry after the backoff.
	conflictState *platformSlots

	commits   atomic.Uint64
	conflicts atomic.Uint64
	shed      atomic.Uint64

	// chunkGap, when non-nil, runs between chunk placements (test hook,
	// mirroring Scheduler.chunkGap).
	chunkGap func()
}

// PlaceAll places a wave of jobs in arrival order through this replica,
// chunked like Scheduler.PlaceAll: each chunk snapshots the replica's
// shard and commits per-job reservations against those snapshots.
func (r *Replica) PlaceAll(jobs []Job) []Assignment {
	return r.set.placeWave(&r.mu, jobs, r.placeChunkLocked, r.set.noteChunk, r.chunkGap)
}

// Place assigns one job through this replica.
func (r *Replica) Place(job Job) Assignment {
	return r.PlaceAll([]Job{job})[0]
}

// setView rebuilds platform p's view from a published store state: the
// current one at chunk start, the committed one after a reservation, the
// newer one a conflict returned.
func (r *Replica) setView(p int, st *platformSlots) {
	r.views[p] = platformView{
		ver:       st.version,
		ks:        st.workloads(),
		load:      len(st.residents),
		cap:       st.colocCap(r.set.store.maxColocation),
		placeable: st.state.Placeable(),
		degraded:  st.state == Degraded,
	}
}

// placeChunkLocked places one chunk of jobs under the replica mutex,
// filling out[i] for jobs[i], over fresh views of the replica's shard.
func (r *Replica) placeChunkLocked(jobs []Job, out []Assignment) {
	set := r.set
	shard := set.shardFor(r.idx)
	for _, p := range shard {
		r.setView(p, set.store.load(p))
	}
	set.placeChunk(&r.table, r, jobs, out, shard, r.views)
}

// admit implements committer: the store's cluster-wide MaxInFlight.
func (r *Replica) admit() bool {
	st := r.set.store
	return st.maxInFlight <= 0 || st.InFlight() < st.maxInFlight
}

// commit implements committer with an optimistic reservation against the
// view's version. The committed view is adopted at once; a conflict's
// newer state waits for retry. The interference set is the view's shared
// immutable snapshot.
func (r *Replica) commit(p int, job Job) (JobID, []int, reserveStatus) {
	set := r.set
	inter := r.views[p].ks
	id, st, status := set.store.reserve(p, r.views[p].ver, job)
	switch status {
	case reserveOK:
		r.commits.Add(1)
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvPlace, Job: uint64(id), ID: uint64(id),
				Platform: int32(p), Version: set.snapVersion()})
		}
		r.setView(p, st)
	case reserveConflict:
		r.conflictState = st
	}
	return id, inter, status
}

// unplaced implements committer; replicas record sheds only for conflicts.
func (r *Replica) unplaced(string) {}

// retry implements committer: the snapshot of p went stale. Past the retry
// budget the job is shed; otherwise, after the backoff, the view adopts
// the state the store returned and selection runs again — the refreshed
// view may demote p or crown a different winner.
func (r *Replica) retry(p, attempt int) bool {
	set := r.set
	r.conflicts.Add(1)
	if set.rec != nil {
		set.rec.Record(obs.Event{Kind: obs.EvConflict, Platform: int32(p),
			N: int32(attempt), Version: set.snapVersion()})
	}
	if attempt > set.maxRetries {
		r.shed.Add(1)
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ReasonConflict,
				Platform: int32(p), N: int32(attempt), Version: set.snapVersion()})
		}
		return false
	}
	set.backoff(attempt)
	r.setView(p, r.conflictState)
	return true
}

// backoff spaces the k-th consecutive reserve retry: yield-only when no
// base delay is configured, capped exponential otherwise. Bounded by
// design — the caller sheds the job after MaxCommitRetries.
func (rs *ReplicaSet) backoff(k int) {
	if rs.commitBackoff <= 0 {
		runtime.Gosched()
		return
	}
	d := rs.commitBackoff << uint(k-1)
	if d > rs.commitBackoffMax || d <= 0 {
		d = rs.commitBackoffMax
	}
	time.Sleep(d)
}

package sched

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaConfig tunes a ReplicaSet: how many scheduler replicas share the
// slot store, how platforms shard across them, and the optimistic commit
// protocol's retry budget.
type ReplicaConfig struct {
	// Replicas is the number of scheduler frontends (default 1).
	Replicas int
	// Shards partitions the platforms: replica i places into shard
	// i % Shards. 0 shards one partition per replica (disjoint platform
	// sets, minimal commit contention); 1 is a single shared pool (every
	// replica sees every platform, conflicts resolved optimistically);
	// values above the platform count are clamped.
	Shards int
	// MaxCommitRetries bounds consecutive reserve conflicts per job before
	// it is shed with ReasonConflict (default 8).
	MaxCommitRetries int
	// CommitBackoff is the base delay between reserve retries, doubled per
	// consecutive conflict up to CommitBackoffMax (default 1ms when a base
	// is set). 0 yields the processor instead of sleeping.
	CommitBackoff    time.Duration
	CommitBackoffMax time.Duration
	// RebalanceEvery checks shard balance every N placed chunks and
	// rebalances when the hottest shard's resident load exceeds
	// RebalanceSkew times the mean (default skew 1.5). 0 disables
	// automatic rebalancing; Rebalance can still be called directly.
	RebalanceEvery int
	RebalanceSkew  float64
}

// shardMap is an immutable platform partition: shards[i] is a sorted
// platform list. Replicas read it at chunk start, so a rebalance takes
// effect at the next chunk boundary; transiently overlapping placements
// during the handoff are resolved by the commit protocol like any other
// conflict.
type shardMap struct {
	shards [][]int
}

// ConflictStats counts the optimistic commit protocol's outcomes across a
// ReplicaSet's lifetime.
type ConflictStats struct {
	// Attempts is the number of slot reservations tried; Conflicts how
	// many were refused because the scored snapshot had gone stale (the
	// conflict-retry rate is Conflicts/Attempts).
	Attempts  uint64
	Conflicts uint64
	// Shed counts jobs unplaced with ReasonConflict after exhausting
	// MaxCommitRetries.
	Shed uint64
	// Rebalances counts shard-map rewrites (skew-triggered or explicit).
	Rebalances uint64
}

// ReplicaStats is one replica's share of the commit traffic.
type ReplicaStats struct {
	Commits   uint64
	Conflicts uint64
	Shed      uint64
}

// ReplicaSet is the placement engine: N scheduler replicas over one shared
// SlotStore and one shared predictor. Each replica scores waves against
// views of the store it copies at chunk start and commits placements with
// version-checked slot reservations, so placements from many frontends
// proceed without holding the store across scoring. Platforms are sharded
// across replicas (ReplicaConfig.Shards); shards that run hot are
// rebalanced by resident load. New builds the one-replica set.
//
// The lifecycle surface (Complete, Fail, Degrade, Recover, health and
// stats accessors) is the embedded store's, so every replica and external
// caller sees one cluster. PlaceAll routes each wave to a replica
// round-robin; drivers that own their parallelism (one goroutine per
// frontend) should take Replica handles and call PlaceAll on them
// directly.
type ReplicaSet struct {
	engine
	*SlotStore

	maxRetries       int
	commitBackoff    time.Duration
	commitBackoffMax time.Duration
	rebalanceEvery   int
	rebalanceSkew    float64

	replicas []*Replica
	shards   atomic.Pointer[shardMap]

	router     atomic.Uint64
	chunkCount atomic.Uint64
	rebalances atomic.Uint64
	rebalanceM sync.Mutex
}

// ScoreTableStats returns the score-table counters summed over the
// replicas (each replica owns its table).
func (rs *ReplicaSet) ScoreTableStats() ScoreTableStats {
	var st ScoreTableStats
	for _, r := range rs.replicas {
		t := r.table.stats()
		st.Hits += t.Hits
		st.Misses += t.Misses
	}
	return st
}

// New creates the placement engine: the one-replica ReplicaSet, scoring
// through pred the heads policy reads (see ParsePolicy).
func New(cfg Config, policy Policy, pred Predictor) (*ReplicaSet, error) {
	return NewReplicaSet(cfg, ReplicaConfig{}, policy, pred)
}

// NewReplicaSet builds rc.Replicas schedulers over one shared slot store.
// cfg carries the cluster shape and scoring configuration exactly as for
// New.
func NewReplicaSet(cfg Config, rc ReplicaConfig, policy Policy, pred Predictor) (*ReplicaSet, error) {
	if rc.Replicas == 0 {
		rc.Replicas = 1
	}
	if rc.Replicas < 0 {
		return nil, fmt.Errorf("sched: negative Replicas")
	}
	if rc.Shards < 0 {
		return nil, fmt.Errorf("sched: negative Shards")
	}
	e, err := newEngine(cfg, policy, pred)
	if err != nil {
		return nil, err
	}
	if rc.MaxCommitRetries <= 0 {
		rc.MaxCommitRetries = 8
	}
	if rc.CommitBackoff > 0 && rc.CommitBackoffMax <= 0 {
		rc.CommitBackoffMax = time.Millisecond
	}
	if rc.CommitBackoffMax < rc.CommitBackoff {
		rc.CommitBackoffMax = rc.CommitBackoff
	}
	if rc.RebalanceSkew <= 1 {
		rc.RebalanceSkew = 1.5
	}
	rs := &ReplicaSet{
		engine:           e,
		SlotStore:        newSlotStore(e.cfg),
		maxRetries:       rc.MaxCommitRetries,
		commitBackoff:    rc.CommitBackoff,
		commitBackoffMax: rc.CommitBackoffMax,
		rebalanceEvery:   rc.RebalanceEvery,
		rebalanceSkew:    rc.RebalanceSkew,
	}
	nP, mc := e.cfg.NumPlatforms, e.cfg.MaxColocation
	nShards := rc.Shards
	if nShards == 0 {
		nShards = rc.Replicas
	}
	if nShards > nP {
		nShards = nP
	}
	shards := make([][]int, nShards)
	for p := 0; p < nP; p++ {
		shards[p%nShards] = append(shards[p%nShards], p)
	}
	rs.shards.Store(&shardMap{shards: shards})
	rs.replicas = make([]*Replica, rc.Replicas)
	for i := range rs.replicas {
		r := &Replica{set: rs, idx: i, views: make([]platformView, nP), table: waveTable{nP: nP}}
		// Each view's resident row is the replica's own, capped at
		// MaxColocation, so copying a platform's state never allocates.
		buf := make([]int, nP*mc)
		for p := range r.views {
			r.views[p].ks = buf[p*mc : p*mc : (p+1)*mc]
		}
		rs.replicas[i] = r
	}
	return rs, nil
}

// shardFor returns the sorted platform list replica i currently places
// into.
func (rs *ReplicaSet) shardFor(i int) []int {
	m := rs.shards.Load()
	return m.shards[i%len(m.shards)]
}

// NumReplicas returns the replica count.
func (rs *ReplicaSet) NumReplicas() int { return len(rs.replicas) }

// NumShards returns the current shard count.
func (rs *ReplicaSet) NumShards() int { return len(rs.shards.Load().shards) }

// Replica returns frontend i, for drivers that pin work to replicas.
func (rs *ReplicaSet) Replica(i int) *Replica { return rs.replicas[i] }

// PlaceAll places a wave through the next replica round-robin (see
// Replica.PlaceAll).
func (rs *ReplicaSet) PlaceAll(jobs []Job) []Assignment {
	r := rs.replicas[(rs.router.Add(1)-1)%uint64(len(rs.replicas))]
	return r.PlaceAll(jobs)
}

// Place assigns one job through the next replica round-robin.
func (rs *ReplicaSet) Place(job Job) Assignment {
	return rs.PlaceAll([]Job{job})[0]
}

// noteChunk ticks the auto-rebalance cadence after each placed chunk.
func (rs *ReplicaSet) noteChunk() {
	if rs.rebalanceEvery <= 0 || rs.NumShards() < 2 {
		return
	}
	if rs.chunkCount.Add(1)%uint64(rs.rebalanceEvery) != 0 {
		return
	}
	if rs.shardSkew() > rs.rebalanceSkew {
		rs.Rebalance()
	}
}

// shardSkew is the hottest shard's resident load over the mean shard load
// (1 when perfectly balanced; +Inf-free: 0 loads give skew 0).
func (rs *ReplicaSet) shardSkew() float64 {
	m := rs.shards.Load()
	total, max := 0, 0
	for _, shard := range m.shards {
		load := 0
		for _, p := range shard {
			load += rs.Load(p)
		}
		total += load
		if load > max {
			max = load
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.shards))
	return float64(max) / mean
}

// Rebalance rewrites the shard map by current resident load: platforms are
// assigned greedily, heaviest first, to the lightest shard (deterministic
// tie-breaks on index), then each shard is sorted so replica scoring order
// stays ascending. Replicas pick the new map up at their next chunk;
// placements that straddle the swap are protected by the commit protocol.
func (rs *ReplicaSet) Rebalance() {
	rs.rebalanceM.Lock()
	defer rs.rebalanceM.Unlock()
	nShards := rs.NumShards()
	type platLoad struct{ p, load int }
	pls := make([]platLoad, rs.cfg.NumPlatforms)
	for p := range pls {
		pls[p] = platLoad{p: p, load: rs.Load(p)}
	}
	sort.Slice(pls, func(i, j int) bool {
		if pls[i].load != pls[j].load {
			return pls[i].load > pls[j].load
		}
		return pls[i].p < pls[j].p
	})
	shards := make([][]int, nShards)
	loads := make([]int, nShards)
	for _, pl := range pls {
		li := 0
		for s := 1; s < nShards; s++ {
			if loads[s] < loads[li] {
				li = s
			}
		}
		shards[li] = append(shards[li], pl.p)
		loads[li] += pl.load
	}
	for _, shard := range shards {
		sort.Ints(shard)
	}
	rs.shards.Store(&shardMap{shards: shards})
	rs.rebalances.Add(1)
}

// ConflictStats returns the commit protocol's counters.
func (rs *ReplicaSet) ConflictStats() ConflictStats {
	rs.mu.Lock()
	attempts, conflicts := rs.attempts, rs.conflicts
	rs.mu.Unlock()
	return ConflictStats{
		Attempts:   attempts,
		Conflicts:  conflicts,
		Shed:       rs.sumShed(),
		Rebalances: rs.rebalances.Load(),
	}
}

func (rs *ReplicaSet) sumShed() uint64 {
	var n uint64
	for _, r := range rs.replicas {
		n += r.shed.Load()
	}
	return n
}

// ReplicaStats returns per-replica commit traffic, indexed by replica.
func (rs *ReplicaSet) ReplicaStats() []ReplicaStats {
	out := make([]ReplicaStats, len(rs.replicas))
	for i, r := range rs.replicas {
		out[i] = ReplicaStats{
			Commits:   r.commits.Load(),
			Conflicts: r.conflicts.Load(),
			Shed:      r.shed.Load(),
		}
	}
	return out
}

package obs

import (
	"sync"
	"time"
)

// EventKind is a typed lifecycle event in a job's journey through the
// placement stack.
type EventKind uint8

const (
	EvEnqueue  EventKind = 1 + iota // job arrived / admitted to a wave
	EvScore                         // a wave chunk's scores were looked up (N = cells scored, Cached = cells served)
	_                               // retired (a reservation, which EvPlace records); kinds keep their values
	EvConflict                      // slot reservation hit a newer version, retrying (N = attempt)
	EvPlace                         // job committed to a platform
	EvComplete                      // job finished and released its slot
	EvOrphan                        // platform failed under a resident job
	EvReadmit                       // platform re-admitted after recovery/probation
	EvRetry                         // queued retry attempt (N = attempt)
	EvShed                          // job rejected (Reason says why)
)

var kindNames = [...]string{
	EvEnqueue:  "enqueue",
	EvScore:    "score",
	EvConflict: "conflict",
	EvPlace:    "place",
	EvComplete: "complete",
	EvOrphan:   "orphan",
	EvReadmit:  "readmit",
	EvRetry:    "retry",
	EvShed:     "shed",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Reason is a compact encoding of the scheduler's rejection reason strings
// so events stay allocation-free at record time.
type Reason uint8

const (
	ReasonNone Reason = iota
	ReasonAdmission
	ReasonNoHealthy
	ReasonCapacity
	ReasonInfeasible
	ReasonConflict
)

var reasonNames = [...]string{
	ReasonNone:       "",
	ReasonAdmission:  "admission",
	ReasonNoHealthy:  "no-healthy-platform",
	ReasonCapacity:   "capacity",
	ReasonInfeasible: "infeasible",
	ReasonConflict:   "commit-conflict",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// ParseReason maps a scheduler reason string back to its compact code.
// Unknown strings (including "") map to ReasonNone.
func ParseReason(s string) Reason {
	for i, n := range reasonNames {
		if i != 0 && n == s {
			return Reason(i)
		}
	}
	return ReasonNone
}

// Event is one flight-recorder entry. Job is the caller-chosen tracking
// key — the scheduler JobID on the serving path, the 1-based arrival index
// on the schedsim stream path. ID carries the scheduler JobID when it is
// known and distinct from the tracking key. Version is the predictor
// snapshot version at record time, Platform is -1 when the event is not
// platform-specific, and N is contextual (cells scored for score, attempt
// number for conflict/retry).
type Event struct {
	Seq      uint64        // total order within the recorder
	T        time.Duration // monotonic time since the recorder's epoch
	Job      uint64
	ID       uint64
	Version  uint64
	Kind     EventKind
	Reason   Reason
	Platform int32
	N        int32
	// Cached is, on EvScore events, how many (platform, workload) score
	// cells the chunk's lookup served from the score table; N on the same
	// event counts the cells it scored through the predictor, so
	// N + Cached is the chunk's distinct workloads times its open
	// platforms. 0 elsewhere.
	Cached int32
}

// Recorder is a bounded ring of Events with overwrite-oldest semantics.
// Record is safe for concurrent use and allocation-free: each event is
// written in place into a pre-sized slot under a short mutex. A nil
// *Recorder drops events with a single branch and no time syscall.
type Recorder struct {
	epoch time.Time

	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever recorded; head slot = next % cap
}

// DefaultTraceDepth is the ring capacity used when a caller passes a
// non-positive depth.
const DefaultTraceDepth = 4096

// NewRecorder builds a recorder holding the most recent capacity events.
// Non-positive capacities fall back to DefaultTraceDepth.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &Recorder{
		epoch: time.Now(),
		ring:  make([]Event, capacity),
	}
}

// Epoch returns the wall-clock instant event T durations are relative to.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Record stamps e with a sequence number and monotonic time and stores it,
// overwriting the oldest event when the ring is full. Nil-safe.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	// time.Since uses the monotonic clock carried by epoch; taken outside
	// the lock so the critical section is a few stores.
	t := time.Since(r.epoch)
	r.mu.Lock()
	e.Seq = r.next
	e.T = t
	r.ring[r.next%uint64(len(r.ring))] = e
	r.next++
	r.mu.Unlock()
}

// Total returns the number of events ever recorded, including overwritten
// ones.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.next, uint64(len(r.ring))))
}

// Dropped returns how many events have been overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.ring)) {
		return 0
	}
	return r.next - uint64(len(r.ring))
}

// snapshotLocked appends the retained events in chronological order.
func (r *Recorder) snapshotLocked(dst []Event) []Event {
	n := min(r.next, uint64(len(r.ring)))
	start := r.next - n
	for i := uint64(0); i < n; i++ {
		dst = append(dst, r.ring[(start+i)%uint64(len(r.ring))])
	}
	return dst
}

// Events returns a chronological copy of every retained event.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(make([]Event, 0, min(r.next, uint64(len(r.ring)))))
}

// Recent returns the most recent n retained events in chronological order.
func (r *Recorder) Recent(n int) []Event {
	evs := r.Events()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// JobTrace returns every retained event for the given tracking key in
// chronological order. Cost is one O(capacity) scan under the lock — the
// ring is not indexed by job; it is a debugging surface, not a hot path.
func (r *Recorder) JobTrace(job uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := r.snapshotLocked(nil)
	r.mu.Unlock()
	out := all[:0]
	for _, e := range all {
		if e.Job == job {
			out = append(out, e)
		}
	}
	return out
}

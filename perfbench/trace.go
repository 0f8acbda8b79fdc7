package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	pitot "repro"
)

// Span kinds. Root spans are the harness's own work and the ServeHTTP call
// of each request; backend spans are the calls the server makes into the
// predictor, each parented on the request that caused it.
const (
	kServe      = iota // one ServeHTTP call (root of a request)
	kHarness           // harness work between requests: pick body, check reply, bookkeeping
	kEstimate          // Backend.Estimate (scalar)
	kBound             // Backend.Bound (scalar)
	kEstBatch          // Backend.EstimateBatch
	kBoundBatch        // Backend.BoundBatch
	kScoreBatch        // ScorerBackend.ScoreSecondsBatch
	kObserve           // Backend.Observe
	numKinds
)

var kindNames = [numKinds]string{
	"serve.ServeHTTP", "harness", "pitot.Estimate", "pitot.Bound",
	"pitot.EstimateBatch", "pitot.BoundBatch", "pitot.ScoreSecondsBatch", "pitot.Observe",
}

// maxKeptSpans bounds the spans kept for the written trace; the per-kind
// aggregates below cover every span regardless.
const maxKeptSpans = 1 << 16

type span struct {
	ID, Parent uint64
	Kind       uint8
	Start, End int64 // ns since the tracer's epoch
	Queries    int32
}

// timeline collects the spans of one caller goroutine.
type timeline struct {
	epoch  time.Time
	lastID uint64
	cur    uint64 // the request in flight, parent of backend spans

	kept    []span
	count   [numKinds]int64
	nanos   [numKinds]int64
	queries [numKinds]int64
	dots    [numKinds]float64 // rank-32 dots and fold terms, from query shapes
	// recalNanos times the first bound-serving call after each snapshot
	// publish, which carries the lazy conformal recalibration.
	recalNanos []int64
	lastVer    uint64
}

func (t *timeline) now() int64 { return int64(time.Since(t.epoch)) }

func (t *timeline) add(s span) {
	d := s.End - s.Start
	t.count[s.Kind]++
	t.nanos[s.Kind] += d
	t.queries[s.Kind] += int64(s.Queries)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
}

// begin opens a root span of the given kind and makes it the current
// request; it returns the span to pass to end.
func (t *timeline) begin(kind uint8) span {
	t.lastID++
	id := t.lastID
	if kind == kServe {
		t.cur = id
	}
	return span{ID: id, Kind: kind, Start: t.now()}
}

func (t *timeline) end(s span) {
	s.End = t.now()
	t.add(s)
}

// tracer holds the spans of the traced caller. The benchmark drives each
// copy of the program from one goroutine, and with one caller the server
// runs every backend call on the goroutine whose request caused it, so
// the timeline needs no lock.
type tracer struct {
	tl timeline
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far (set-up and warm-up traffic). It
// must not run while the caller is active.
func (t *tracer) reset() {
	t.tl = timeline{epoch: time.Now()}
}

// timedBackend wraps the serving backend with spans around each call. It
// implements serve.Backend and serve.ScorerBackend, so EnablePlacement
// takes the same scoring path as over the bare predictor and decisions
// stay identical. Info is not spanned: the server calls it several times
// per request as a metadata read, and its cost stays in serve's self time.
type timedBackend struct {
	be backend
	tr *tracer
}

// interferenceTypes is the model's interference type count (s in the
// paper), from the default model shape the benchmark trains.
var interferenceTypes = float64(pitot.DefaultModelConfig(0).InterferenceTypes)

// scalarDots is the rank-32 work of one scalar head evaluation: the
// workload·platform dot, plus per interference type one dot per
// interferer (the magnitude) and one workload·susceptibility dot.
func scalarDots(nks int) float64 {
	if nks == 0 {
		return 1
	}
	return 1 + interferenceTypes*float64(nks+1)
}

// batchDots is the rank-32 work of one head over a batch: the batch
// kernels fold each distinct (platform, interferer set) group once — one
// dot per interferer and one axpy per type — and then pay one dot per
// query. Groups are counted as runs of consecutive queries sharing a
// platform and interferer slice, which is how the scheduler emits them.
func batchDots(qs []pitot.Query) float64 {
	d := float64(len(qs))
	for i, q := range qs {
		if i > 0 && q.Platform == qs[i-1].Platform && sameSlice(q.Interferers, qs[i-1].Interferers) {
			continue
		}
		if n := len(q.Interferers); n > 0 {
			d += interferenceTypes * float64(n+1)
		}
	}
	return d
}

func sameSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return &a[0] == &b[0]
}

func (b *timedBackend) child(tl *timeline, kind uint8, n int, start int64, dots float64) {
	end := tl.now()
	tl.lastID++
	tl.add(span{ID: tl.lastID, Parent: tl.cur, Kind: kind, Start: start, End: end, Queries: int32(n)})
	tl.dots[kind] += dots
}

// published reports whether a snapshot was published since the last
// bound-serving call: if so, the coming call recalibrates.
func (b *timedBackend) published(tl *timeline) bool {
	v := b.be.Info().Version
	if v == tl.lastVer {
		return false
	}
	tl.lastVer = v
	return true
}

// noteRecal records a bound-serving call that recalibrated.
func (tl *timeline) noteRecal(recal bool, start int64) {
	if recal {
		tl.recalNanos = append(tl.recalNanos, tl.now()-start)
	}
}

func (b *timedBackend) Estimate(w, pl int, ks []int) float64 {
	tl := &b.tr.tl
	st := tl.now()
	v := b.be.Estimate(w, pl, ks)
	b.child(tl, kEstimate, 1, st, scalarDots(len(ks)))
	return v
}

func (b *timedBackend) Bound(w, pl int, ks []int, eps float64) (float64, error) {
	tl := &b.tr.tl
	recal := b.published(tl)
	st := tl.now()
	v, err := b.be.Bound(w, pl, ks, eps)
	b.child(tl, kBound, 1, st, scalarDots(len(ks)))
	tl.noteRecal(recal, st)
	return v, err
}

func (b *timedBackend) EstimateBatch(qs []pitot.Query) []float64 {
	tl := &b.tr.tl
	st := tl.now()
	v := b.be.EstimateBatch(qs)
	b.child(tl, kEstBatch, len(qs), st, batchDots(qs))
	return v
}

func (b *timedBackend) BoundBatch(qs []pitot.Query, eps float64) ([]float64, error) {
	tl := &b.tr.tl
	recal := b.published(tl)
	st := tl.now()
	v, err := b.be.BoundBatch(qs, eps)
	b.child(tl, kBoundBatch, len(qs), st, batchDots(qs))
	tl.noteRecal(recal, st)
	return v, err
}

func (b *timedBackend) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	tl := &b.tr.tl
	recal := b.published(tl)
	st := tl.now()
	b.be.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
	b.child(tl, kScoreBatch, len(qs), st, 2*batchDots(qs))
	tl.noteRecal(recal, st)
}

func (b *timedBackend) Observe(obs []pitot.Observation) error {
	tl := &b.tr.tl
	st := tl.now()
	err := b.be.Observe(obs)
	b.child(tl, kObserve, len(obs), st, 0)
	return err
}

func (b *timedBackend) Info() pitot.Info { return b.be.Info() }

// writeSpans writes the kept spans as JSON to path, creating its
// directory.
func (t *tracer) writeSpans(path string) error {
	type out struct {
		Name    string  `json:"name"`
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent,omitempty"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
		Queries int32   `json:"queries,omitempty"`
	}
	all := make([]out, len(t.tl.kept))
	for i, s := range t.tl.kept {
		all[i] = out{kindNames[s.Kind], s.ID, s.Parent, float64(s.Start) / 1e3, float64(s.End-s.Start) / 1e3, s.Queries}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	body, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, body, 0o644)
}

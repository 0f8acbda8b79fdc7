package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	pitot "repro"
	"repro/internal/sched"
)

// EstimateRequest is the JSON body of POST /estimate and (with Eps) of
// POST /bound.
type EstimateRequest struct {
	Workload    int     `json:"workload"`
	Platform    int     `json:"platform"`
	Interferers []int   `json:"interferers,omitempty"`
	Eps         float64 `json:"eps,omitempty"` // /bound only
}

// PredictionResponse is the JSON reply of /estimate and /bound. Version is
// the snapshot version published at reply time — an upper bound on the
// version that served the query (a concurrent Observe may land between
// the prediction and the reply), letting clients track staleness across
// updates.
// Infeasible marks a +Inf bound (the calibration set is too small for the
// requested eps — a documented predictor outcome JSON cannot carry as a
// number); Seconds is 0 in that case.
type PredictionResponse struct {
	Seconds    float64 `json:"seconds"`
	Version    uint64  `json:"version"`
	Infeasible bool    `json:"infeasible,omitempty"`
}

// ObserveRequest is the JSON body of POST /observe. Observations use the
// dataset wire format: w (workload), p (platform), k (interferers),
// t (seconds).
type ObserveRequest struct {
	Observations []pitot.Observation `json:"observations"`
}

// ObserveResponse is the JSON reply of /observe.
type ObserveResponse struct {
	Accepted int    `json:"accepted"`
	Version  uint64 `json:"version"`
}

// JobSpec is one placement request inside POST /place.
type JobSpec struct {
	Workload int     `json:"workload"`
	Deadline float64 `json:"deadline"`
}

// PlaceRequest is the JSON body of POST /place: a wave of jobs placed in
// order against the live cluster state, scored in one batched predictor
// pass.
type PlaceRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// AssignmentJSON is one placement decision in the /place reply. Platform
// is -1 when the job was not placed; Rejected distinguishes admission
// refusal (cluster at capacity) from infeasibility, and Reason spells out
// why an unplaced job was shed ("admission", "no-healthy-platform",
// "capacity", "infeasible"). Budget is omitted for unplaced jobs (it
// would be +Inf, which JSON cannot carry).
type AssignmentJSON struct {
	ID       uint64  `json:"id,omitempty"`
	Workload int     `json:"workload"`
	Deadline float64 `json:"deadline"`
	Platform int     `json:"platform"`
	Budget   float64 `json:"budget,omitempty"`
	Placed   bool    `json:"placed"`
	Rejected bool    `json:"rejected,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

func toAssignmentJSON(a sched.Assignment) AssignmentJSON {
	aj := AssignmentJSON{
		ID:       uint64(a.ID),
		Workload: a.Job.Workload,
		Deadline: a.Job.Deadline,
		Platform: a.Platform,
		Placed:   a.Placed(),
		Rejected: a.Rejected,
		Reason:   a.Reason,
	}
	if a.Placed() {
		aj.Budget = a.Budget
	}
	return aj
}

// PlaceResponse is the JSON reply of POST /place. Version is the model
// snapshot version at reply time, as in PredictionResponse.
type PlaceResponse struct {
	Assignments []AssignmentJSON `json:"assignments"`
	Placed      int              `json:"placed"`
	Version     uint64           `json:"version"`
}

// CompleteRequest is the JSON body of POST /complete: job IDs (from
// /place) whose executions finished, freeing their colocation slots.
// Missed optionally lists the subset of IDs whose executions overran
// their deadline — the outcome signal the platform circuit breaker trips
// on.
type CompleteRequest struct {
	IDs    []uint64 `json:"ids"`
	Missed []uint64 `json:"missed,omitempty"`
}

// CompleteResponse is the JSON reply of POST /complete. Unknown lists IDs
// the scheduler never issued; Stale lists IDs already retired (double
// completions, or jobs orphaned by a platform failure). Any entry in
// either makes the reply a 409 — the valid IDs still complete.
type CompleteResponse struct {
	Completed int      `json:"completed"`
	Unknown   []uint64 `json:"unknown,omitempty"`
	Stale     []uint64 `json:"stale,omitempty"`
}

// FailRequest is the JSON body of POST /fail: the platform to fail hard
// (orphaning and re-placing its residents) or, with Degrade set, to mark
// flaky (residents keep running; placements pay the degraded penalty).
type FailRequest struct {
	Platform int  `json:"platform"`
	Degrade  bool `json:"degrade,omitempty"`
}

// FailResponse is the JSON reply of POST /fail. For a hard failure,
// Reassigned reports where each orphaned resident landed (in eviction
// order); orphans with no surviving feasible platform are shed with their
// reason.
type FailResponse struct {
	Platform   int              `json:"platform"`
	State      string           `json:"state"`
	Orphaned   int              `json:"orphaned"`
	Reassigned []AssignmentJSON `json:"reassigned,omitempty"`
}

// RecoverRequest is the JSON body of POST /recover.
type RecoverRequest struct {
	Platform int `json:"platform"`
}

// RecoverResponse is the JSON reply of POST /recover: the platform's
// post-recovery state — "degraded" (half-open probation) when it was down
// or quarantined, "healthy" when it was degraded.
type RecoverResponse struct {
	Platform int    `json:"platform"`
	State    string `json:"state"`
}

// HealthResponse is the JSON reply of /healthz.
type HealthResponse struct {
	OK           bool   `json:"ok"`
	Version      uint64 `json:"version"`
	Observations int    `json:"observations"`
	Workloads    int    `json:"workloads"`
	Platforms    int    `json:"platforms"`
	Bounds       bool   `json:"bounds"`
	// UptimeSeconds is the time since the server was constructed;
	// BuildVersion is the binary stamp injected at link time (cmd/serve
	// builds with -ldflags "-X main.buildVersion=...", default "dev").
	UptimeSeconds float64 `json:"uptime_seconds"`
	BuildVersion  string  `json:"build_version"`
	Metrics       Metrics `json:"metrics"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler returns the HTTP surface of the serving daemon:
//
//	POST /estimate  — one query's runtime estimate
//	POST /bound     — one query's 1−eps runtime bound
//	POST /observe   — feed measurements; publishes a new model snapshot
//	POST /place     — place a wave of deadline jobs (requires EnablePlacement)
//	POST /complete  — retire placed jobs, freeing colocation slots
//	POST /fail      — admin: fail a platform hard (orphans re-placed) or degrade it
//	POST /recover   — admin: re-admit a failed/quarantined platform (half-open)
//	GET  /healthz   — liveness, snapshot info, and serving metrics
//	GET  /metrics   — Prometheus plain-text exposition of the same counters
//	GET  /debug/trace?job=ID    — flight-recorder events for one job
//	GET  /debug/trace/recent    — the most recent flight-recorder events
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", func(w http.ResponseWriter, r *http.Request) {
		s.handlePrediction(w, r, false)
	})
	mux.HandleFunc("/bound", func(w http.ResponseWriter, r *http.Request) {
		s.handlePrediction(w, r, true)
	})
	mux.HandleFunc("/observe", s.handleObserve)
	mux.HandleFunc("/place", s.handlePlace)
	mux.HandleFunc("/complete", s.handleComplete)
	mux.HandleFunc("/fail", s.handleFail)
	mux.HandleFunc("/recover", s.handleRecover)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/trace/recent", s.handleTraceRecent)
	return mux
}

// writeJSON encodes before touching the ResponseWriter, so an encoding
// failure (e.g. a non-finite float reaching a response struct) becomes an
// HTTP 500 instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		body, _ = json.Marshal(errorResponse{Error: "encode response: " + err.Error()})
		status = http.StatusInternalServerError
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody writes an encoded JSON reply, newline included.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// validateQuery bounds-checks entity indices against the current snapshot
// before they reach the embedding tables.
func (s *Server) validateQuery(q pitot.Query) error {
	info := s.Info()
	if q.Workload < 0 || q.Workload >= info.Workloads {
		return fmt.Errorf("workload %d out of range [0,%d)", q.Workload, info.Workloads)
	}
	if q.Platform < 0 || q.Platform >= info.Platforms {
		return fmt.Errorf("platform %d out of range [0,%d)", q.Platform, info.Platforms)
	}
	for _, k := range q.Interferers {
		if k < 0 || k >= info.Workloads {
			return fmt.Errorf("interferer %d out of range [0,%d)", k, info.Workloads)
		}
	}
	return nil
}

func (s *Server) handlePrediction(w http.ResponseWriter, r *http.Request, bound bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	// End-to-end handler latency: decode + predict + encode.
	h := s.hists.estimate
	if bound {
		h = s.hists.bound
	}
	start := time.Now()
	defer h.ObserveSince(start)
	c := getCodec()
	defer c.release()
	req, err := decode(c, r.Body, parseEstimate)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	q := pitot.Query{Workload: req.Workload, Platform: req.Platform, Interferers: req.Interferers}
	if err := s.validateQuery(q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var sec float64
	if bound {
		sec, err = s.Bound(q, req.Eps)
	} else {
		sec, err = s.Estimate(q)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	resp := PredictionResponse{Seconds: sec, Version: s.Info().Version}
	if math.IsInf(sec, 1) {
		resp = PredictionResponse{Infeasible: true, Version: resp.Version}
	}
	writeReply(w, c, http.StatusOK, resp, appendPrediction)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req ObserveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no observations"))
		return
	}
	if err := s.Observe(req.Observations); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ObserveResponse{
		Accepted: len(req.Observations),
		Version:  s.Info().Version,
	})
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.placer == nil {
		writeError(w, http.StatusServiceUnavailable, ErrPlacementDisabled)
		return
	}
	start := time.Now()
	defer s.hists.place.ObserveSince(start)
	c := getCodec()
	defer c.release()
	req, err := decode(c, r.Body, parsePlace)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no jobs"))
		return
	}
	info := s.Info()
	jobs := make([]sched.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		if j.Workload < 0 || j.Workload >= info.Workloads {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("job %d: workload %d out of range [0,%d)", i, j.Workload, info.Workloads))
			return
		}
		if !(j.Deadline > 0) || math.IsInf(j.Deadline, 1) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("job %d: deadline must be a finite positive number of seconds", i))
			return
		}
		jobs[i] = sched.Job{Workload: j.Workload, Deadline: j.Deadline}
	}
	as, err := s.PlaceJobs(jobs)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := PlaceResponse{Assignments: make([]AssignmentJSON, len(as)), Version: s.Info().Version}
	for i, a := range as {
		resp.Assignments[i] = toAssignmentJSON(a)
		if a.Placed() {
			resp.Placed++
		}
	}
	writeReply(w, c, http.StatusOK, resp, appendPlace)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.placer == nil {
		writeError(w, http.StatusServiceUnavailable, ErrPlacementDisabled)
		return
	}
	c := getCodec()
	defer c.release()
	req, err := decode(c, r.Body, parseComplete)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no ids"))
		return
	}
	ids := make([]sched.JobID, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = sched.JobID(id)
	}
	var missed []bool
	if len(req.Missed) > 0 {
		missedSet := make(map[uint64]struct{}, len(req.Missed))
		for _, id := range req.Missed {
			missedSet[id] = struct{}{}
		}
		missed = make([]bool, len(ids))
		for i, id := range req.IDs {
			_, missed[i] = missedSet[id]
		}
	}
	completed, unknown, stale, err := s.CompleteJobs(ids, missed)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := CompleteResponse{Completed: completed}
	for _, id := range unknown {
		resp.Unknown = append(resp.Unknown, uint64(id))
	}
	for _, id := range stale {
		resp.Stale = append(resp.Stale, uint64(id))
	}
	// Bad IDs are a client-side bookkeeping error: flag the batch with a
	// 409 (the valid completions in it still took effect).
	status := http.StatusOK
	if len(resp.Unknown) > 0 || len(resp.Stale) > 0 {
		status = http.StatusConflict
	}
	writeReply(w, c, status, resp, appendComplete)
}

// failStatus maps scheduler failure-event errors onto HTTP statuses.
func failStatus(err error) int {
	switch {
	case errors.Is(err, sched.ErrPlatformOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, sched.ErrPlatformUnavailable):
		return http.StatusConflict
	case errors.Is(err, ErrPlacementDisabled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.placer == nil {
		writeError(w, http.StatusServiceUnavailable, ErrPlacementDisabled)
		return
	}
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Degrade {
		if err := s.DegradePlatform(req.Platform); err != nil {
			writeError(w, failStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, FailResponse{
			Platform: req.Platform,
			State:    s.placer.Health(req.Platform).String(),
		})
		return
	}
	as, err := s.FailPlatform(req.Platform)
	if err != nil {
		writeError(w, failStatus(err), err)
		return
	}
	resp := FailResponse{
		Platform: req.Platform,
		State:    s.placer.Health(req.Platform).String(),
		Orphaned: len(as),
	}
	for _, a := range as {
		resp.Reassigned = append(resp.Reassigned, toAssignmentJSON(a))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.placer == nil {
		writeError(w, http.StatusServiceUnavailable, ErrPlacementDisabled)
		return
	}
	var req RecoverRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if err := s.RecoverPlatform(req.Platform); err != nil {
		writeError(w, failStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, RecoverResponse{
		Platform: req.Platform,
		State:    s.placer.Health(req.Platform).String(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	info := s.Info()
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:            true,
		Version:       info.Version,
		Observations:  info.Observations,
		Workloads:     info.Workloads,
		Platforms:     info.Platforms,
		Bounds:        info.Bounds,
		UptimeSeconds: time.Since(s.start).Seconds(),
		BuildVersion:  s.cfg.BuildVersion,
		Metrics:       s.Metrics(),
	})
}

package serve

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// ErrTracingDisabled is returned by the /debug/trace endpoints when the
// flight recorder is off (placement disabled, or PlacementConfig.TraceDepth
// negative).
var ErrTracingDisabled = errors.New("serve: flight recorder not enabled")

// TraceEventJSON is one flight-recorder event in /debug/trace replies — the
// human-readable rendering of obs.Event (kinds and reasons as strings, time
// as seconds since the recorder epoch). On "score" events both counts are
// (platform, workload) score cells of one wave chunk: "n" the cells scored
// through the predictor, "cached" the cells served from the wave score
// table, so n + cached is the chunk's distinct workloads times its open
// platforms. A zero count is omitted. On "conflict" and "retry" events "n"
// is the attempt number.
type TraceEventJSON struct {
	Seq      uint64  `json:"seq"`
	T        float64 `json:"t_seconds"`
	Kind     string  `json:"kind"`
	Job      uint64  `json:"job"`
	ID       uint64  `json:"id,omitempty"`
	Platform int     `json:"platform"`
	N        int     `json:"n,omitempty"`
	Cached   int     `json:"cached,omitempty"`
	Version  uint64  `json:"snapshot_version,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

func toTraceEventJSON(e obs.Event) TraceEventJSON {
	return TraceEventJSON{
		Seq:      e.Seq,
		T:        e.T.Seconds(),
		Kind:     e.Kind.String(),
		Job:      e.Job,
		ID:       e.ID,
		Platform: int(e.Platform),
		N:        int(e.N),
		Cached:   int(e.Cached),
		Version:  e.Version,
		Reason:   e.Reason.String(),
	}
}

// TraceResponse is the JSON reply of the /debug/trace endpoints. Total
// counts every event ever recorded; Dropped counts the ones the bounded
// ring has already overwritten (a job older than the retention window may
// have an incomplete — or empty — trace).
type TraceResponse struct {
	Job     uint64           `json:"job,omitempty"`
	Total   uint64           `json:"total_events"`
	Dropped uint64           `json:"dropped_events"`
	Events  []TraceEventJSON `json:"events"`
}

func (s *Server) traceResponse(job uint64, events []obs.Event) TraceResponse {
	resp := TraceResponse{
		Job:     job,
		Total:   s.recorder.Total(),
		Dropped: s.recorder.Dropped(),
		Events:  make([]TraceEventJSON, len(events)),
	}
	for i, e := range events {
		resp.Events[i] = toTraceEventJSON(e)
	}
	return resp
}

// handleTrace serves GET /debug/trace?job=ID: every retained lifecycle
// event for one job, in order.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if s.recorder == nil {
		writeError(w, http.StatusServiceUnavailable, ErrTracingDisabled)
		return
	}
	jobParam := r.URL.Query().Get("job")
	if jobParam == "" {
		writeError(w, http.StatusBadRequest, errors.New("job query parameter required (use /debug/trace/recent for the global tail)"))
		return
	}
	job, err := strconv.ParseUint(jobParam, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("job must be an unsigned integer"))
		return
	}
	writeJSON(w, http.StatusOK, s.traceResponse(job, s.recorder.JobTrace(job)))
}

// handleTraceRecent serves GET /debug/trace/recent?n=N: the most recent N
// retained events across all jobs (default 256).
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if s.recorder == nil {
		writeError(w, http.StatusServiceUnavailable, ErrTracingDisabled)
		return
	}
	n := 256
	if nParam := r.URL.Query().Get("n"); nParam != "" {
		v, err := strconv.Atoi(nParam)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, errors.New("n must be a positive integer"))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, s.traceResponse(0, s.recorder.Recent(n)))
}

// FlightRecorder exposes the placement flight recorder, nil unless
// EnablePlacement ran with tracing on.
func (s *Server) FlightRecorder() *obs.Recorder { return s.recorder }

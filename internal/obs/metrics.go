package obs

// SchedMetrics bundles the placement-path histogram families so one
// pointer threads through sched.Config. A nil *SchedMetrics (or any nil
// member) disables recording at that site with a single branch.
type SchedMetrics struct {
	// ScoreBatch is the latency of one predictor scoring call of the
	// placement engine (seconds): a chunk's prescore or a post-commit
	// rescore. Cells served from the score table make no call and record
	// nothing.
	ScoreBatch *Histogram
	// WavePlace is the end-to-end latency of one PlaceAll wave (seconds).
	WavePlace *Histogram
	// ChunkHold is the time the placement engine holds its placement mutex
	// to place a wave chunk (seconds): view copy, scoring, selection and
	// commits.
	ChunkHold *Histogram
	// WaveSize is the distribution of PlaceAll wave sizes (jobs).
	WaveSize *Histogram
}

// NewSchedMetrics builds the placement histogram set with the given family
// name prefix (e.g. "pitot_place_").
func NewSchedMetrics(prefix string) *SchedMetrics {
	return &SchedMetrics{
		ScoreBatch: NewHistogram(prefix+"score_batch_seconds",
			"Latency of one predictor scoring call of the placement engine (a chunk's prescore or a post-commit rescore).", LatencyBuckets()),
		WavePlace: NewHistogram(prefix+"wave_seconds",
			"End-to-end latency of one placement wave.", LatencyBuckets()),
		ChunkHold: NewHistogram(prefix+"chunk_hold_seconds",
			"Time the placement engine spends placing a wave chunk (scoring, selection and commits; lifecycle events do not wait for it).", LatencyBuckets()),
		WaveSize: NewHistogram(prefix+"wave_jobs",
			"Distribution of placement wave sizes.", SizeBuckets()),
	}
}

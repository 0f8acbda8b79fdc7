package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	pitot "repro"
	"repro/internal/serve"
)

// Raw slice figures.
func (p *phase) p50() float64     { return p.quantiles[0] }
func (p *phase) p90() float64     { return p.quantiles[1] }
func (p *phase) p99() float64     { return p.quantiles[2] }
func (p *phase) opsPerS() float64 { return float64(p.n) / p.wall.Seconds() }

// Scaled slice figures: times at nominal machine speed.
func (p *phase) p50Scaled() float64 { return p.p50() * p.speed.factor() }
func (p *phase) p90Scaled() float64 { return p.p90() * p.speed.factor() }
func (p *phase) p99Scaled() float64 { return p.p99() * p.speed.factor() }
func (p *phase) opsScaled() float64 { return p.opsPerS() / p.speed.factor() }
func (p *phase) factor() float64    { return p.speed.factor() }

// medianOf is the median over slices of a per-slice figure.
func medianOf(slices []*phase, f func(*phase) float64) float64 {
	xs := make([]float64, len(slices))
	for i, p := range slices {
		xs[i] = f(p)
	}
	return median(xs)
}

// sameAnswers checks that two slices of one seed got the same answers over
// their common prefix.
func sameAnswers(a, b *phase) error {
	n := min(len(a.checkpoints), len(b.checkpoints))
	if n == 0 {
		return fmt.Errorf("fewer than %d requests in a slice: nothing to compare", checkpointEvery)
	}
	if a.checkpoints[n-1] != b.checkpoints[n-1] {
		return fmt.Errorf("answer digest differs between two copies of the program over the first %d requests", n*checkpointEvery)
	}
	return nil
}

// checkSlices totals the requests of every slice and checks that each
// copy of the program gave the same answers.
func checkSlices(res *result, slices []*phase) error {
	for _, p := range slices {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.n == 0 {
			return fmt.Errorf("no request completed in a %v slice", p.wall)
		}
	}
	for _, p := range slices[1:] {
		if err := sameAnswers(slices[0], p); err != nil {
			return err
		}
	}
	return nil
}

// replay places replayWaves waves of the workload's wave stream on a fresh
// server over the world's current snapshot and returns placed_pct and
// deadline_miss_pct.
func replay(cfg config, w *world, in *inputs) (placedPct, missPct float64, ph *phase, err error) {
	srv, err := newServer(w.be, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	defer srv.Close()
	rw := &world{oracle: w.oracle, be: w.be, srv: srv, h: serve.NewHandler(srv)}
	l := newPlaceLoop(newClient(rw.h, nil), rw, sub(cfg.seed, streamReplayNoise), slotTarget(rw))
	ph = newPhase()
	for i := 0; i < replayWaves; i++ {
		if _, _, err := l.wave(in.waves[i%len(in.waves)], ph); err != nil {
			return 0, 0, nil, fmt.Errorf("replay: %w", err)
		}
	}
	if err := checkLedger(rw, len(l.fifo)); err != nil {
		return 0, 0, nil, fmt.Errorf("replay: %w", err)
	}
	if l.checked == 0 {
		return 0, 0, nil, fmt.Errorf("replay completed no jobs")
	}
	return 100 * ratio(float64(rw.led.placed), float64(rw.led.submitted)),
		100 * float64(l.missed) / float64(l.checked), ph, nil
}

// postObserve posts one /observe of the first observeBatch held-out
// measurements and returns its ServeHTTP time.
func postObserve(c *client, in *inputs) (time.Duration, error) {
	n := min(observeBatch, len(in.evalQ))
	req := serve.ObserveRequest{Observations: make([]pitot.Observation, n)}
	for i, q := range in.evalQ[:n] {
		req.Observations[i] = pitot.Observation{Workload: q.Workload, Platform: q.Platform, Interferers: q.Interferers, Seconds: in.evalY[i]}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("encode /observe: %w", err)
	}
	status, reply, d := c.post("/observe", body)
	if status != http.StatusOK {
		return 0, fmt.Errorf("/observe: status %d: %s", status, reply)
	}
	var r serve.ObserveResponse
	if err := json.Unmarshal(reply, &r); err != nil || r.Accepted != n {
		return 0, fmt.Errorf("/observe reply %q: accepted %d of %d (%v)", reply, r.Accepted, n, err)
	}
	return d, nil
}

// untraced reports the end-to-end metrics: medians over the slices, and
// quality and the placement replay on the last copy's trained snapshot.
func untraced(cfg config, w *world, in *inputs, times []setupTimes, slices []*phase) (*result, error) {
	res := &result{}
	if err := checkSlices(res, slices); err != nil {
		return res, err
	}
	q, err := measureQuality(w.be, in.evalQ, in.evalY, w.be.Info().Observations/10)
	if err != nil {
		return res, err
	}
	placedPct, deadlineMissPct, rph, err := replay(cfg, w, in)
	if err != nil {
		return res, err
	}
	res.Attempted += rph.attempted
	res.Failed += rph.failed

	var t strings.Builder
	fmt.Fprintf(&t, "raw medians (unscaled): ops_per_s %.6g p50_ms %.6g p90_ms %.6g setup_s %.6g; speed factors:",
		medianOf(slices, (*phase).opsPerS), medianOf(slices, (*phase).p50), medianOf(slices, (*phase).p90),
		rawSetupMedian(times))
	for _, p := range slices {
		fmt.Fprintf(&t, " %.4f", p.factor())
	}
	fmt.Fprintln(&t)
	res.table = t.String()

	m := &res.ms
	m.add("setup_s", "s", setupMedian(times, func(t setupTimes) time.Duration { return t.total }))
	m.add("ops_per_s", "1/s", medianOf(slices, (*phase).opsScaled))
	m.add("p50_ms", "ms", medianOf(slices, (*phase).p50Scaled))
	m.add("p90_ms", "ms", medianOf(slices, (*phase).p90Scaled))
	m.add("ok_pct", "%", 100*float64(res.Attempted-res.Failed)/float64(res.Attempted))
	m.add("peak_rss_mb", "MB", peakRSSMB())
	m.add("mape_pct", "%", q.mapePct)
	m.add("miss_pct", "%", q.missPct)
	m.add("bound_ratio", "ratio", q.boundRatio)
	m.add("placed_pct", "%", placedPct)
	m.add("deadline_miss_pct", "%", deadlineMissPct)
	if d := math.Abs(q.missPct - 100*eps); d > q.missTol {
		return res, fmt.Errorf("miss rate %.3f%% is %.3f points from eps=%g%%, tolerance %.3f", q.missPct, d, 100*eps, q.missTol)
	}
	res.Correct = true
	return res, nil
}

// traced reports the per-layer metrics of the last slice, which ran over
// the timing wrapper, against the untraced slices before it. Then it posts
// one /observe and one /bound on the traced copy, alone on the core, to
// time the write and the recalibration that follows its publish.
func traced(cfg config, w *world, in *inputs, times []setupTimes, slices []*phase) (*result, error) {
	res := &result{}
	if err := checkSlices(res, slices); err != nil {
		return res, err
	}
	plain, tp := slices[:len(slices)-1], slices[len(slices)-1]

	tr := w.tr
	tl := tr.tl // the slice's spans, before the calls below add to them
	ns := func(kinds ...int) (t, c, q, d float64) {
		for _, k := range kinds {
			t += float64(tl.nanos[k])
			c += float64(tl.count[k])
			q += float64(tl.queries[k])
			d += tl.dots[k]
		}
		return
	}
	// The spans tile the slice's whole elapsed time, reference bursts
	// (inside harness spans) included.
	bursts := float64(tp.speed.spent)
	wall := float64(tp.wall) + bursts
	serveT, serveC, _, _ := ns(kServe)
	harnessT, _, _, _ := ns(kHarness)
	scalarT, scalarC, scalarQ, scalarD := ns(kEstimate, kBound)
	batchT, _, batchQ, batchD := ns(kEstBatch, kBoundBatch, kScoreBatch)
	const wave, score, chunk = "pitot_place_wave_seconds", "pitot_place_score_batch_seconds", "pitot_place_chunk_hold_seconds"
	waveT := 1e9 * tp.prom1.delta(tp.prom0, wave+"_sum")
	waveC := tp.prom1.delta(tp.prom0, wave+"_count")
	scoreT := 1e9 * tp.prom1.delta(tp.prom0, score+"_sum")
	serveSelf := serveT - waveT - scalarT
	schedSelf := waveT - batchT
	pitotT := scalarT + batchT
	gap := wall - serveT - harnessT
	if math.Abs(gap) > 0.1*wall {
		return res, fmt.Errorf("spans cover %.1f%% of the traced wall time", 100*(serveT+harnessT)/wall)
	}

	var t strings.Builder
	fmt.Fprintf(&t, "attribution of the traced caller's %.3fs (%d requests):\n", wall/1e9, int(serveC))
	row := func(name string, v float64) { fmt.Fprintf(&t, "  %-40s %9.4fs %6.2f%%\n", name, v/1e9, 100*v/wall) }
	row("serve (ServeHTTP minus sched and pitot)", serveSelf)
	row("sched (waves minus pitot batch calls)", schedSelf)
	row("pitot (backend calls)", pitotT)
	row("harness (between requests)", harnessT-bursts)
	row("speed reference bursts", bursts)
	row("unattributed", gap)
	res.table = t.String()

	// A publish, then the first bound-serving call, which recalibrates.
	c := newClient(w.h, &tr.tl)
	c.start()
	var observe time.Duration
	_, recalSpeed, err := timeScaled(func() error {
		var err error
		observe, err = postObserve(c, in)
		res.Attempted++
		if err != nil {
			return err
		}
		q := in.evalQ[0]
		body, err := json.Marshal(serve.EstimateRequest{Workload: q.Workload, Platform: q.Platform, Interferers: q.Interferers, Eps: eps})
		if err != nil {
			return fmt.Errorf("encode /bound: %w", err)
		}
		status, reply, _ := c.post("/bound", body)
		res.Attempted++
		if status != http.StatusOK {
			return fmt.Errorf("/bound after /observe: status %d: %s", status, reply)
		}
		return nil
	})
	c.stop()
	if err != nil {
		return res, err
	}
	var recal []float64
	for _, v := range tr.tl.recalNanos {
		recal = append(recal, float64(v)/1e6*recalSpeed)
	}

	reqs := float64(tp.m1.Requests - tp.m0.Requests)
	queued := reqs - float64(tp.m1.InlineFlushes-tp.m0.InlineFlushes) + float64(tp.m1.PlaceWaveJobs-tp.m0.PlaceWaveJobs)
	placeCalls := tp.prom1.delta(tp.prom0, "pitot_http_place_seconds_count")
	var gcCPU, cpu, alloc, n float64
	for _, p := range plain {
		gcCPU += p.gc1.gcCPU - p.gc0.gcCPU
		cpu += p.gc1.totalCPU - p.gc0.totalCPU
		alloc += p.gc1.allocBytes - p.gc0.allocBytes
		n += float64(p.n)
	}
	plainOps := medianOf(plain, (*phase).opsScaled)
	f := tp.factor() // traced-slice times at nominal speed

	m := &res.ms
	m.add("serve.self_us", "us", f*ratio(serveSelf, serveC)/1e3)
	m.add("serve.inline_pct", "%", 100*(1-ratio(queued, reqs+placeCalls)))
	m.add("sched.wave_us", "us", f*ratio(waveT, waveC)/1e3)
	m.add("sched.self_us", "us", f*ratio(waveT-scoreT, waveC)/1e3)
	m.add("sched.queries_per_placed", "ratio", ratio(batchQ, float64(tp.placed)))
	m.add("sched.chunk_hold_us", "us", f*1e6*ratio(tp.prom1.delta(tp.prom0, chunk+"_sum"), tp.prom1.delta(tp.prom0, chunk+"_count")))
	m.add("pitot.scalar_ns", "ns", f*ratio(scalarT, scalarC))
	m.add("pitot.batch_ns_per_query", "ns", f*ratio(batchT, batchQ))
	m.add("pitot.dot32_per_query", "count", ratio(scalarD+batchD, scalarQ+batchQ))
	m.add("pitot.observe_s", "s", observe.Seconds()*recalSpeed)
	m.add("conformal.recalibrate_ms", "ms", median(recal))
	m.add("wasmcluster.gen_s", "s", setupMedian(times, func(t setupTimes) time.Duration { return t.gen }))
	m.add("core.train_s", "s", setupMedian(times, func(t setupTimes) time.Duration { return t.train }))
	m.add("conformal.calibrate_ms", "ms", 1e3*setupMedian(times, func(t setupTimes) time.Duration { return t.calibrate }))
	m.add("gc.cpu_pct", "%", 100*ratio(gcCPU, cpu))
	m.add("gc.alloc_kb_per_op", "KiB", ratio(alloc, n)/1024)
	m.add("attr.serve_pct", "%", 100*serveSelf/wall)
	m.add("attr.sched_pct", "%", 100*schedSelf/wall)
	m.add("attr.pitot_pct", "%", 100*pitotT/wall)
	m.add("attr.harness_pct", "%", 100*(harnessT-bursts)/wall)
	m.add("lat.p99_ms", "ms", medianOf(plain, (*phase).p99Scaled))
	m.add("lat.samples", "count", n)
	m.add("trace.overhead_pct", "%", 100*ratio(plainOps-tp.opsScaled(), plainOps))
	m.add("machine.speed", "ratio", medianOf(slices, (*phase).factor))

	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// observeBatch is the number of completed jobs whose measured runtimes
// one /observe carries.
const observeBatch = 256

// phase is one measured slice of a workload's traffic on one world.
type phase struct {
	lat       []uint32 // ServeHTTP time of each measured request, ns; nil once summarised
	n         int      // measured requests
	quantiles [3]float64
	attempted int64         // every request sent, measured or not
	failed    int64         // non-2xx replies
	wall      time.Duration // traffic time, reference bursts excluded
	speed     speedMeter    // reference bursts between requests

	// digest is a running FNV-1a digest of every answer the measured
	// requests got; checkpoints[i] is its value after (i+1)*checkpointEvery
	// requests, for comparing two runs of one seed over their common
	// prefix.
	digest      uint64
	checkpoints []uint64

	// Counters read before and after the slice: the runtime's, the
	// server's, and jobs placed.
	gc0, gc1     gcSample
	m0, m1       serve.Metrics
	prom0, prom1 promSample
	placed       int64
}

const checkpointEvery = 64

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (p *phase) mix(v uint64) {
	for i := 0; i < 8; i++ {
		p.digest ^= v & 0xff
		p.digest *= fnvPrime
		v >>= 8
	}
}

func newPhase() *phase { return &phase{digest: fnvOffset} }

// done records one measured request.
func (p *phase) done(d time.Duration) {
	p.lat = append(p.lat, uint32(min(d, math.MaxUint32)))
	p.n++
	if p.n%checkpointEvery == 0 {
		p.checkpoints = append(p.checkpoints, p.digest)
	}
}

// pace runs a reference burst when refEvery of traffic has passed since
// the last one, and reports whether the slice has run for dur.
func (p *phase) pace(start time.Time, next *time.Time, dur time.Duration) bool {
	now := time.Now()
	if now.After(*next) {
		p.speed.burst(refBurst)
		now = time.Now()
		*next = now.Add(refEvery)
	}
	return now.Sub(start)-p.speed.spent < dur
}

// summarise keeps the latency quantiles the report needs and drops the
// samples, so that a slice's buffer is not resident during the next.
func (p *phase) summarise() {
	slices.Sort(p.lat)
	for i, q := range reportedQuantiles {
		p.quantiles[i] = quantile(p.lat, q) / 1e6
	}
	p.lat = nil
}

var reportedQuantiles = [3]float64{0.5, 0.9, 0.99}

// runPredict is one closed-loop caller cycling through the pre-encoded
// queries; want holds the backend's own answer to each, which the reply
// must equal bit for bit.
func runPredict(c *client, in []predictInput, want []float64, dur time.Duration) (*phase, error) {
	ph := newPhase()
	var resp serve.PredictionResponse
	c.start()
	defer c.stop()
	start := time.Now()
	next := start.Add(refEvery)
	for i := 0; ph.pace(start, &next, dur); i++ {
		q := &in[i%len(in)]
		status, body, d := c.post(q.path, q.body)
		ph.attempted++
		if status != http.StatusOK {
			ph.failed++
			continue
		}
		resp = serve.PredictionResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("%s reply %q: %w", q.path, body, err)
		}
		got := resp.Seconds
		if resp.Infeasible {
			got = math.Inf(1)
		}
		if got != want[i%len(in)] {
			return nil, fmt.Errorf("%s %s: got %v, backend answers %v", q.path, q.body, got, want[i%len(in)])
		}
		ph.mix(math.Float64bits(got))
		ph.done(d)
	}
	ph.wall = time.Since(start) - ph.speed.spent
	ph.summarise()
	return ph, nil
}

// wantPredict asks the backend directly for the answer to every query.
func wantPredict(be backend, in []predictInput) ([]float64, error) {
	want := make([]float64, len(in))
	for i, q := range in {
		if q.path == "/estimate" {
			want[i] = be.Estimate(q.q.Workload, q.q.Platform, q.q.Interferers)
			continue
		}
		v, err := be.Bound(q.q.Workload, q.q.Platform, q.q.Interferers, q.q.Eps)
		if err != nil {
			return nil, fmt.Errorf("reference bound: %w", err)
		}
		want[i] = v
	}
	return want, nil
}

// ledger counts a world's placement traffic across every loop run on it,
// to be checked against the server's own counters.
type ledger struct {
	submitted, placed, unplaced, rejected, completed int64
	maxID                                            uint64
}

type resident struct {
	id       uint64
	workload int
	platform int
	deadline float64
	co       [3]int // co-resident workloads once its wave was placed
	nco      int
}

// placeLoop is one closed-loop /place caller. After each wave it completes
// the oldest jobs down to the occupancy target, measuring each completed
// job on the oracle with the co-residents it ran with.
type placeLoop struct {
	c      *client
	oracle *wasmcluster.Cluster
	noise  *rand.Rand
	led    *ledger
	target int

	fifo []resident // placed, not yet completed, oldest first
	res  serve.PlaceResponse
	cres serve.CompleteResponse
	ids  []byte

	// Outcomes of completed jobs.
	checked, missed int64
}

func newPlaceLoop(c *client, w *world, noiseSeed int64, target int) *placeLoop {
	return &placeLoop{
		c: c, oracle: w.oracle, noise: rand.New(rand.NewSource(noiseSeed)),
		led: &w.led, target: target,
	}
}

// wave posts one /place body and completes jobs down to the target. It
// returns the /place ServeHTTP time and whether the /place succeeded; an
// error is a correctness failure.
func (l *placeLoop) wave(body []byte, ph *phase) (time.Duration, bool, error) {
	status, reply, d := l.c.post("/place", body)
	ph.attempted++
	if status != http.StatusOK {
		ph.failed++
		return d, false, nil
	}
	// A fresh reply: decoding into reused elements would keep fields the
	// new reply omits.
	l.res = serve.PlaceResponse{}
	if err := json.Unmarshal(reply, &l.res); err != nil {
		return d, false, fmt.Errorf("/place reply %q: %w", reply, err)
	}
	if len(l.res.Assignments) != waveJobs {
		return d, false, fmt.Errorf("/place: %d assignments for %d jobs", len(l.res.Assignments), waveJobs)
	}
	first := len(l.fifo)
	placed := 0
	for _, a := range l.res.Assignments {
		l.led.submitted++
		ph.mix(a.ID)
		ph.mix(uint64(int64(a.Platform)))
		ph.mix(math.Float64bits(a.Budget))
		switch {
		case a.Placed:
			if a.ID <= l.led.maxID {
				return d, false, fmt.Errorf("/place: job id %d repeats or precedes issued id %d", a.ID, l.led.maxID)
			}
			if a.Platform < 0 || a.Platform >= len(l.oracle.Platforms) || !(a.Budget > 0) || a.Budget > a.Deadline {
				return d, false, fmt.Errorf("/place: bad placement %+v", a)
			}
			l.led.maxID = a.ID
			l.led.placed++
			placed++
			l.fifo = append(l.fifo, resident{id: a.ID, workload: a.Workload, platform: a.Platform, deadline: a.Deadline})
		case a.Rejected:
			l.led.rejected++
		default:
			l.led.unplaced++
		}
	}
	if placed != l.res.Placed {
		return d, false, fmt.Errorf("/place: reply counts %d placed, assignments show %d", l.res.Placed, placed)
	}
	// Co-residents of the new jobs: everyone on their platform now.
	for i := first; i < len(l.fifo); i++ {
		j := &l.fifo[i]
		for k := range l.fifo {
			if k != i && l.fifo[k].platform == j.platform {
				if j.nco == len(j.co) {
					return d, false, fmt.Errorf("/place: platform %d holds more than %d jobs", j.platform, len(j.co)+1)
				}
				j.co[j.nco] = l.fifo[k].workload
				j.nco++
			}
		}
	}
	return d, true, l.completeDown(ph)
}

// completeDown completes the oldest jobs until at most target remain.
func (l *placeLoop) completeDown(ph *phase) error {
	n := len(l.fifo) - l.target
	if n <= 0 {
		return nil
	}
	l.ids = append(l.ids[:0], `{"ids":[`...)
	for i, j := range l.fifo[:n] {
		if i > 0 {
			l.ids = append(l.ids, ',')
		}
		l.ids = strconv.AppendUint(l.ids, j.id, 10)
	}
	l.ids = append(l.ids, "]}"...)
	status, reply, _ := l.c.post("/complete", l.ids)
	ph.attempted++
	if status != http.StatusOK {
		ph.failed++
		return nil
	}
	l.cres = serve.CompleteResponse{}
	if err := json.Unmarshal(reply, &l.cres); err != nil {
		return fmt.Errorf("/complete reply %q: %w", reply, err)
	}
	if l.cres.Completed != n {
		return fmt.Errorf("/complete: %d of %d jobs completed (unknown %v, stale %v)", l.cres.Completed, n, l.cres.Unknown, l.cres.Stale)
	}
	l.led.completed += int64(n)
	for _, j := range l.fifo[:n] {
		sec := l.oracle.MeasureSeconds(l.noise, j.workload, j.platform, j.co[:j.nco])
		l.checked++
		if sec > j.deadline {
			l.missed++
		}
	}
	l.fifo = append(l.fifo[:0], l.fifo[n:]...)
	return nil
}

// checkLedger cross-checks the harness's placement counts with the
// server's: conservation of submitted jobs and of placed jobs.
func checkLedger(w *world, resident int) error {
	m, led := w.srv.Metrics(), w.led
	if led.placed+led.unplaced+led.rejected != led.submitted {
		return fmt.Errorf("ledger: placed %d + unplaced %d + rejected %d != submitted %d",
			led.placed, led.unplaced, led.rejected, led.submitted)
	}
	if led.placed != led.completed+int64(resident) {
		return fmt.Errorf("ledger: placed %d != completed %d + resident %d", led.placed, led.completed, resident)
	}
	if m.Placed != led.placed || m.PlaceUnplaced != led.unplaced || m.PlaceRejected != led.rejected || m.Completed != led.completed {
		return fmt.Errorf("server counts placed %d unplaced %d rejected %d completed %d, harness saw %d %d %d %d",
			m.Placed, m.PlaceUnplaced, m.PlaceRejected, m.Completed, led.placed, led.unplaced, led.rejected, led.completed)
	}
	if in := w.srv.Placer().InFlight(); in != resident {
		return fmt.Errorf("server holds %d jobs in flight, harness %d", in, resident)
	}
	return nil
}

// runPlace is one closed-loop /place caller for dur.
func runPlace(l *placeLoop, waves [][]byte, dur time.Duration) (*phase, error) {
	ph := newPhase()
	l.c.start()
	defer l.c.stop()
	start := time.Now()
	next := start.Add(refEvery)
	for i := 0; ph.pace(start, &next, dur); i++ {
		d, ok, err := l.wave(waves[i%len(waves)], ph)
		if err != nil {
			return nil, err
		}
		if ok {
			ph.done(d)
		}
	}
	ph.wall = time.Since(start) - ph.speed.spent
	ph.summarise()
	return ph, nil
}

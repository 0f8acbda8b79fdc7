// Command perfbench is the repository's benchmark. It sets up the serving
// stack the way cmd/serve runs it with its default flags (-place on),
// drives it in-process through serve.NewHandler with closed-loop callers,
// checks every answer, and prints its metrics, the last line as JSON:
//
//	go run . --workload predict|place --seed N --seconds S --trace 0|1
//
// run.sh builds and runs it from the repository root. Each run sets up
// three copies of the program one after the other and measures a third of
// the time on each. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 the last copy runs over a timing wrapper, and it prints the
// per-layer metrics and an attribution table of the traced caller's wall
// time, and writes the spans under --out.
//
// The process runs on one P (GOMAXPROCS=1): on a two-core machine, two Ps
// made training time swing by a quarter between runs, and a single caller
// gains nothing from a second P because the server answers it inline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	pitot "repro"
	"repro/internal/serve"
)

// dataSeed fixes the dataset and the trained model: every workload seed
// runs against the same program state, so the quality metrics vary only
// with the held-out draws and set-up does the same work on every seed.
const dataSeed = 1

// replayWaves is the length of the placement-quality replay.
const replayWaves = 2048

// copies is the number of program copies a run sets up and measures, one
// after the other; setup_s and the traffic figures are medians over them.
const copies = 3

func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr, realSetup))
}

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	outDir   string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	ms    metricSet
	table string
}

func cli(args []string, stdout, stderr io.Writer, setup setupFunc) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "traffic mix: predict or place")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: traffic, oracle noise and held-out set")
	seconds := fs.Float64("seconds", 36, "measured time, split evenly over the program copies")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case cfg.workload != "predict" && cfg.workload != "place":
		fmt.Fprintf(stderr, "perfbench: --workload must be predict or place, not %q\n", cfg.workload)
		return 2
	case !(*seconds > 0):
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.dur = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	res, err := run(cfg, setup)
	if res == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: correctness check failed: %v\n", err)
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		cfg.workload, cfg.seed, cfg.dur.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprint(stdout, res.table)
	for _, n := range res.ms.names {
		m := res.ms.vals[n]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	res.Metrics = res.ms.vals
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// sub derives independent stream seeds from the workload seed.
func sub(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Seed streams.
const (
	streamPredict = iota
	streamWaves
	streamEval
	streamNoise
	streamReplayNoise
	streamWarm
	streamPopularity
)

// inputs is everything the callers send, generated before measuring.
type inputs struct {
	predict []predictInput
	want    []float64
	waves   [][]byte
	evalQ   []pitot.Query
	evalY   []float64
}

func makeInputs(cfg config, w *world) (*inputs, error) {
	nw, np := len(w.oracle.Workloads), len(w.oracle.Platforms)
	in := &inputs{}
	var err error
	if cfg.workload == "predict" {
		if in.predict, err = predictTraffic(rand.New(rand.NewSource(sub(cfg.seed, streamPredict))), nw, np, predictBodies); err != nil {
			return nil, err
		}
		if in.want, err = wantPredict(w.be, in.predict); err != nil {
			return nil, err
		}
	}
	if in.waves, err = waveTraffic(rand.New(rand.NewSource(sub(cfg.seed, streamWaves))), w.oracle, popularity(w), waveBodies); err != nil {
		return nil, err
	}
	in.evalQ, in.evalY = evalSet(w.oracle, sub(cfg.seed, streamEval), evalQueries)
	return in, nil
}

// popularity orders the workloads from most to least requested. Like the
// dataset it is fixed, not drawn from the workload seed: which workloads
// are popular sets most of the placement quality metrics, and the seed
// should vary the draws, not the deployment.
func popularity(w *world) []int {
	return rand.New(rand.NewSource(sub(dataSeed, streamPopularity))).Perm(len(w.oracle.Workloads))
}

// slotTarget is the number of jobs the place callers keep resident.
func slotTarget(w *world) int {
	return int(occupancy * float64(len(w.oracle.Platforms)*placementConfig().MaxColocation))
}

// warmUp sends a fixed handful of every request kind through the handler
// and completes everything it placed.
func warmUp(w *world) error {
	c := newClient(w.h, nil)
	rng := rand.New(rand.NewSource(sub(dataSeed, streamWarm)))
	qs, err := predictTraffic(rng, len(w.oracle.Workloads), len(w.oracle.Platforms), 128)
	if err != nil {
		return err
	}
	for _, q := range qs {
		if status, body, _ := c.post(q.path, q.body); status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", q.path, status, body)
		}
	}
	waves, err := waveTraffic(rng, w.oracle, popularity(w), 4)
	if err != nil {
		return err
	}
	l := newPlaceLoop(c, w, sub(dataSeed, streamWarm), 0)
	ph := newPhase()
	for _, b := range waves {
		if _, _, err := l.wave(b, ph); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", ph.failed, ph.attempted)
	}
	return checkLedger(w, len(l.fifo))
}

// run sets up the program's copies one after the other and
// measures an equal slice of the workload on each, so that the figures are
// medians over copies with their own memory layout and moments of the
// machine. In a traced run the last copy runs over the timing wrapper.
// The post-measurement steps use the last copy.
func run(cfg config, setup setupFunc) (*result, error) {
	var (
		times  []setupTimes
		slices []*phase
		in     *inputs
		last   *world
	)
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	slice := cfg.dur / copies
	for i := 0; i < copies; i++ {
		var tr *tracer
		if cfg.trace && i == copies-1 {
			tr = newTracer()
		}
		if last != nil {
			last.close()
			last = nil
		}
		settle()
		var (
			w  *world
			st setupTimes
		)
		total, speed, err := timeScaled(func() error {
			var err error
			if w, st, err = setup(dataSeed, tr); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			last = w
			w.h = serve.NewHandler(w.srv)
			return warmUp(w)
		})
		if err != nil {
			return nil, err
		}
		st.total, st.speed = total, speed
		times = append(times, st)
		if in == nil {
			if in, err = makeInputs(cfg, w); err != nil {
				return nil, err
			}
		}
		settle()
		ph, err := runPhase(cfg, w, in, slice, tr)
		if err != nil {
			return &result{}, err
		}
		slices = append(slices, ph)
	}
	if cfg.trace {
		return traced(cfg, last, in, times, slices)
	}
	return untraced(cfg, last, in, times, slices)
}

// runPhase drives the workload on w for dur, recording spans into tr when
// it is set.
func runPhase(cfg config, w *world, in *inputs, dur time.Duration, tr *tracer) (*phase, error) {
	var tl *timeline
	if tr != nil {
		tr.reset()
		tl = &tr.tl
	}
	c := newClient(w.h, tl)
	m0, placed0 := w.srv.Metrics(), w.led.placed
	prom0, err := readProm(w.srv)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	var (
		ph   *phase
		fifo int
	)
	if cfg.workload == "predict" {
		ph, err = runPredict(c, in.predict, in.want, dur)
	} else {
		l := newPlaceLoop(c, w, sub(cfg.seed, streamNoise), slotTarget(w))
		ph, err = runPlace(l, in.waves, dur)
		fifo = len(l.fifo)
	}
	if err != nil {
		return nil, err
	}
	ph.gc0, ph.gc1 = gc0, readGC()
	ph.m0, ph.m1, ph.prom0, ph.placed = m0, w.srv.Metrics(), prom0, w.led.placed-placed0
	if ph.prom1, err = readProm(w.srv); err != nil {
		return nil, err
	}
	return ph, checkLedger(w, fifo)
}

// settle collects garbage and returns free memory to the OS, so that each
// measured step starts from the same heap instead of paying the previous
// step's collection debt.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupMedian is the median over set-ups of one part's scaled seconds.
func setupMedian(times []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = part(t).Seconds() * t.speed
	}
	return median(xs)
}

// rawSetupMedian is the median over set-ups of the unscaled total.
func rawSetupMedian(times []setupTimes) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.total.Seconds()
	}
	return median(xs)
}

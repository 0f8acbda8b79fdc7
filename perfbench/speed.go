package main

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// The machine this benchmark was written on changes speed by up to half
// over minutes (shared host): the same run read 2.8 or 5.0µs for a p50.
// Every timing is therefore measured together with a fixed reference,
// run in short bursts between requests and around each timed step, and
// scaled to the speed the reference runs at when the machine is at its
// nominal rate. A program change moves a scaled timing as it moves the
// raw one; a machine slowdown moves both the timing and the reference.
// The raw figures are printed in the text report.
//
// The reference has two halves, each independent of the program's code:
// a floating-point loop, which tracks the core's clock, and a JSON
// round trip with a small sort, which allocates and tracks the memory
// system the way the serving path does. The factor is the geometric mean
// of the two: against 3s blocks of predict traffic, the program-to-
// reference ratio varied 9.5% with the loop alone and 5.2% with both.

// refBuf is the floating-point half's data, 32 KiB.
var refBuf = func() []float64 {
	b := make([]float64, 4096)
	for i := range b {
		b[i] = float64(i)
	}
	return b
}()

var refSink float64

// refReply is the JSON half's document: a /place reply of 16
// assignments, in types of this file's own.
type refReply struct {
	Assignments []refAssignment `json:"assignments"`
	Placed      int             `json:"placed"`
	Version     uint64          `json:"version"`
}

type refAssignment struct {
	ID       uint64  `json:"id,omitempty"`
	Workload int     `json:"workload"`
	Deadline float64 `json:"deadline"`
	Platform int     `json:"platform"`
	Budget   float64 `json:"budget,omitempty"`
	Placed   bool    `json:"placed"`
}

// refJSON is the JSON half's input.
var refJSON = func() []byte {
	r := refReply{Assignments: make([]refAssignment, 16), Placed: 16}
	for i := range r.Assignments {
		f := float64(i + 1)
		r.Assignments[i] = refAssignment{ID: uint64(1000 + i), Workload: 3 * i, Deadline: 1.2345678 * f, Platform: 5 * i, Budget: 0.987654321 * f, Placed: true}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return b
}()

var refLen int

// Nominal rates of the two halves, in passes per second: about their
// medians on the machine the benchmark was written on.
const (
	refDotNominal  = 250e3
	refJSONNominal = 16e3
)

const (
	refEvery = 200 * time.Millisecond // traffic between bursts in a slice
	refBurst = 10 * time.Millisecond  // one burst in a slice
	refStep  = 50 * time.Millisecond  // bursts before and after a timed step
)

// speedMeter accumulates reference bursts.
type speedMeter struct {
	dot, js         int // passes
	dotTime, jsTime time.Duration
	spent           time.Duration
}

// burst runs each half of the reference for about d/2.
func (s *speedMeter) burst(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d/2 {
		var acc float64
		for _, v := range refBuf {
			acc += v * 1.0000001
		}
		refSink += acc
		s.dot++
	}
	t1 := time.Now()
	for time.Since(t1) < d/2 {
		var r refReply
		if err := json.Unmarshal(refJSON, &r); err != nil {
			panic(err)
		}
		b, err := json.Marshal(&r)
		if err != nil {
			panic(err)
		}
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = float64((i * 7919) % 64)
		}
		sort.Float64s(xs)
		refLen += len(b)
		s.js++
	}
	t2 := time.Now()
	s.dotTime += t1.Sub(t0)
	s.jsTime += t2.Sub(t1)
	s.spent += t2.Sub(t0)
}

// factor is the measured reference rate over the nominal one: above 1 on
// a fast machine. A raw time times the factor is the time at nominal
// speed.
func (s *speedMeter) factor() float64 {
	if s.dotTime <= 0 || s.jsTime <= 0 {
		return 1
	}
	dot := float64(s.dot) / s.dotTime.Seconds() / refDotNominal
	js := float64(s.js) / s.jsTime.Seconds() / refJSONNominal
	return math.Sqrt(dot * js)
}

// timeScaled runs f between two reference bursts and returns its raw
// duration and the factor measured around it.
func timeScaled(f func() error) (time.Duration, float64, error) {
	var s speedMeter
	s.burst(refStep)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s.burst(refStep)
	return d, s.factor(), err
}

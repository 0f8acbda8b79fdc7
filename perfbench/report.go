package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/serve"
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for the text
// report; the JSON line is a map.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (m *metricSet) add(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample reads the runtime's GC CPU and allocation totals.
type gcSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// promSample holds the _sum and _count of the server's histograms.
type promSample map[string]float64

// readProm renders the server's Prometheus exposition and keeps every
// histogram _sum and _count.
func readProm(srv *serve.Server) (promSample, error) {
	var b bytes.Buffer
	if err := srv.WritePrometheus(&b); err != nil {
		return nil, fmt.Errorf("render metrics: %w", err)
	}
	return parseProm(&b)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || !(strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one histogram's _sum or _count.
func (p promSample) delta(before promSample, name string) float64 { return p[name] - before[name] }

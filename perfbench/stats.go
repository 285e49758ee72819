package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// quantile returns the nearest-rank q-quantile of raw samples: the
// smallest sample with at least q of the samples at or below it. It is
// always an observed sample, so it never exceeds the maximum. It sorts
// xs in place; an empty slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies collects per-operation samples of one phase.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// phaseSummary is a phase's sample count, quantiles and observed max.
type phaseSummary struct {
	n                       int
	p50, p90, p95, p99, max float64
}

// summary computes the phase summary from the raw samples. The
// quantiles are asserted to be no greater than the max.
func (l *latencies) summary() phaseSummary {
	xs := append([]float64(nil), l.ms...)
	if len(xs) == 0 {
		nan := math.NaN()
		return phaseSummary{p50: nan, p90: nan, p95: nan, p99: nan, max: nan}
	}
	s := phaseSummary{n: len(xs), p50: quantile(xs, 0.5), p90: quantile(xs, 0.9), p95: quantile(xs, 0.95),
		p99: quantile(xs, 0.99), max: xs[len(xs)-1]}
	if s.p99 > s.max {
		panic("quantile above the observed max")
	}
	return s
}

// tally counts operations attempted and failed. A failure is a non-200
// response, a shed, a degraded response, or an answer that differs from
// the reference; the first few reasons are kept for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

// outcome is one finished operation as the tally sees it.
type outcome struct {
	status   int
	degraded bool
	got      []string
	want     []string
	err      error
}

// add classifies one operation and reports whether it succeeded.
func (t *tally) add(o outcome) bool {
	t.attempted++
	reason := ""
	switch {
	case o.err != nil:
		reason = o.err.Error()
	case o.status != 200:
		reason = "status " + strconv.Itoa(o.status)
	case o.degraded:
		reason = "degraded response"
	case !sameIDs(o.got, o.want):
		reason = "answer differs from the RunCtx reference"
	}
	if reason == "" {
		return true
	}
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, reason)
	}
	return false
}

// arrival is one open-loop request: when it is due and which left row
// it carries.
type arrival struct {
	due time.Duration
	row int
}

// poissonSchedule draws an open-loop schedule of mean rate rps over dur
// with exponential gaps and uniform record picks, both from rng.
func poissonSchedule(rng *rand.Rand, rps float64, dur time.Duration, nRows int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rps
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, row: rng.Intn(nRows)})
	}
}

package main

import (
	"math"
	"slices"
)

// metric is one reported number. Value is the metric itself; N, Q1, Median
// and Q3 describe the samples it was computed from (N = 1 for a single
// measurement, whose quartiles are the value).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// single reports one measurement.
func single(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, N: 1, Q1: v, Median: v, Q3: v}
}

// summarize reports stat(sorted samples) scaled by scale, with the scaled
// sample quartiles. samples is sorted in place.
func summarize(samples []float64, scale float64, unit string, stat func(sorted []float64) float64) metric {
	slices.Sort(samples)
	q1, med, q3 := quartiles(samples)
	return metric{
		Value: stat(samples) * scale, Unit: unit, N: len(samples),
		Q1: q1 * scale, Median: med * scale, Q3: q3 * scale,
	}
}

// addLatencies adds the latency metrics of samples, in seconds, to m: the
// median and the 90th and 99th percentiles, in milliseconds.
func addLatencies(m map[string]metric, samples []float64) {
	m["p50_ms"] = summarize(samples, 1e3, "ms", medianOf)
	m["p90_ms"] = summarize(samples, 1e3, "ms", pct(0.90))
	m["p99_ms"] = summarize(samples, 1e3, "ms", pct(0.99))
}

// medianOf is the middle quartile, for use as a summarize statistic.
func medianOf(sorted []float64) float64 {
	_, med, _ := quartiles(sorted)
	return med
}

// pct returns the nearest-rank q-quantile statistic (q in (0,1]).
func pct(q float64) func(sorted []float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, q) }
}

// quartiles returns the three cut points of sorted data into four equal
// groups by the method of Python's statistics.quantiles(data, n=4) (the
// default, "exclusive"), so spreads printed here match those computed from
// the same values in Python. A single sample is all three quartiles; no
// samples give zeros.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		cut[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return cut[0], cut[1], cut[2]
}

// percentile is the nearest-rank q-quantile of sorted data: the smallest
// sample with at least a q share of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// spread is the interquartile range of values as a share of their median,
// the run-to-run noise measure compare mode holds against a bound.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(sorted(values))
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// sorted returns a sorted copy of x.
func sorted(x []float64) []float64 {
	s := slices.Clone(x)
	slices.Sort(s)
	return s
}

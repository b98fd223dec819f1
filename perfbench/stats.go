package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles, computed the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// spreads printed here match the ones an external checker computes.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q2, q3 := quartiles(s)
	return summary{N: len(s), Median: q2, Q1: q1, Q3: q3}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles of an ascending sample, Python-exclusive method; a single
// value is its own quartiles.
func quartiles(s []float64) (q1, q2, q3 float64) {
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return exclusiveQuantile(s, 1, 4), exclusiveQuantile(s, 2, 4), exclusiveQuantile(s, 3, 4)
}

func exclusiveQuantile(s []float64, i, n int) float64 {
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := float64(i*m - j*n)
	return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

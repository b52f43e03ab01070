package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank, refusing to
// answer when fewer than minBeyond samples lie above it: a p95 over too
// few operations is one or two outliers, not a percentile. The input is
// not modified.
func quantile(xs []float64, q float64, minBeyond int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	if beyond := int(math.Floor((1 - q) * float64(n))); beyond < minBeyond {
		return 0, fmt.Errorf("quantile %.2f needs %d samples beyond it, %d samples give %d", q, minBeyond, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the plain median (mean of the middle pair for even counts);
// 0 for no samples. Used for per-layer figures, which carry no tail.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method)
// computes them, so the spread this tool reports is the one the
// acceptance check recomputes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), nil
}

// spread is the run-to-run quartile spread of a metric: (Q3 − Q1) over
// the median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med <= 0 {
		return 0, fmt.Errorf("spread needs a positive median, got %v", med)
	}
	return (q3 - q1) / med, nil
}

// share divides part by whole, refusing a denominator below minWhole so a
// ratio is never reported from a handful of events.
func share(part, whole float64, minWhole float64) (float64, error) {
	if whole < minWhole || whole <= 0 {
		return 0, fmt.Errorf("share over %.0f events, need at least %.0f", whole, minWhole)
	}
	return part / whole, nil
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

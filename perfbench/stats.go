package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(s []float64) []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the middle value (the mean of the middle two for an
// even count); NaN for an empty set.
func median(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := sorted(s)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100):
// the smallest value with at least p% of the samples at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := sorted(s)
	k := int(math.Ceil(p/100*float64(len(c)))) - 1
	return c[max(0, min(k, len(c)-1))]
}

// beyond counts the samples strictly above the p-th percentile rank,
// which the tail rule needs to be at least ten.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// geomean is the geometric mean of positive values; NaN if any is not
// positive or the set is empty.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

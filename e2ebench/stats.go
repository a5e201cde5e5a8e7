package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middles for even counts);
// NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the p-th percentile (0 < p <= 100) by the nearest-rank
// rule; NaN for no samples.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile that still has tailMinBeyond samples
// above it: the value, the percentile it sits at, and how many samples lie
// beyond. With too few samples no percentile qualifies; it then returns
// the maximum with nothing beyond, which the caller reports as such.
func tail(xs []float64) (value, percentile float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0, 0
	}
	s := sortedCopy(xs)
	k := len(s) - tailMinBeyond - 1
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], 100 * float64(k+1) / float64(len(s)), len(s) - k - 1
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

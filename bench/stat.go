package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianCI returns the median of vs and the half-width of its 95 % confidence
// interval, read off the order statistics at ranks n/2 ± 0.98·√n (the
// binomial interval for a median, which assumes nothing about the
// distribution). A difference whose interval spans 0 is not resolved.
func medianCI(vs []float64) (med, half float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	d := int(math.Ceil(0.98 * math.Sqrt(float64(n))))
	lo, hi := max(n/2-d, 0), min(n/2+d, n-1)
	return median(s), (s[hi] - s[lo]) / 2
}

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the figure is set by a handful of
// scheduling accidents.
const tailSamples = 10

// percentileSteps are the percentiles the benchmark reports, lowest first,
// each with the share of samples at or beyond it as 1/tail (kept as an
// integer: 100 × (1 − 0.9) is 9.999999999999998 in floating point).
var percentileSteps = []struct {
	p    float64
	tail int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile returns the highest reportable percentile for n samples:
// the last step that still has at least tailSamples samples at or beyond it.
// ok is false when even the median is not supported.
func highestPercentile(n int) (p float64, ok bool) {
	for _, step := range percentileSteps {
		if n/step.tail < tailSamples {
			break
		}
		p, ok = step.p, true
	}
	return p, ok
}

// percentile returns the p-quantile of sorted (ascending) and the sample
// count it rests on. p must be one of percentileSteps. When p has fewer than
// tailSamples samples beyond it, the highest supported percentile is
// reported instead (the median at the least) and used says which.
func percentile(sorted []uint32, p float64) (value float64, used float64, n int) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	hi, _ := highestPercentile(n)
	used = max(min(p, hi), 0.5)
	for _, step := range percentileSteps {
		if step.p == used {
			return float64(sorted[n-1-(n-1)/step.tail]), used, n
		}
	}
	return float64(sorted[n/2]), 0.5, n
}

// trimmedMean is the mean of vs after dropping the lowest and the highest
// 1 %: a serial replay is preempted now and then, and a single 10 ms stall
// would otherwise move a 3 µs mean (or, in a difference of two spans, move
// it either way). vs is not modified.
func trimmedMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	keep := s[len(s)/100 : len(s)-len(s)/100]
	var sum float64
	for _, v := range keep {
		sum += v
	}
	return sum / float64(len(keep))
}

// selfTimes subtracts, request by request, the child rungs' spans from the
// parent rung's: self[i] = parent[i] − Σ children[k][i]. All slices share
// the request index.
func selfTimes(parent []float64, children ...[]float64) []float64 {
	self := make([]float64, len(parent))
	for i, p := range parent {
		self[i] = p
		for _, c := range children {
			self[i] -= c[i]
		}
	}
	return self
}

// spread is (max − min) ÷ median of vs: how far the slices of one run
// disagree.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / m
}

package bench

import (
	"math"
	"slices"
)

// Quantile returns the q-quantile (0 < q < 1) of xs by the "exclusive"
// method that Python's statistics.quantiles uses by default: the value at
// 1-based rank q*(n+1), interpolated linearly between neighbours and clamped
// to the smallest and largest sample. It returns NaN for no samples.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(n+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(n) {
		return s[n-1]
	}
	lo := int(h)
	return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// GeoMean returns the geometric mean of xs, which must be positive, or NaN
// for no samples.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailCandidates are the percentiles TailPercentile chooses from, in tenths
// of a percent, highest first.
var tailCandidates = []int{999, 990, 950, 900, 750}

// TailPercentile returns the highest percentile, from 99.9, 99, 95, 90 and
// 75, that has at least ten of n samples beyond it, or 0 when even the 75th
// does not (fewer than 40 samples): a tail read from fewer points is noise.
func TailPercentile(n int) float64 {
	for _, t := range tailCandidates {
		if n*(1000-t)/1000 >= 10 {
			return float64(t) / 10
		}
	}
	return 0
}

// Verdict classifies a change's samples of one metric against its parent's.
type Verdict string

const (
	Improved   Verdict = "improved"
	NoWorse    Verdict = "no-worse"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// Comparison is one (metric, workload) row of a parent/change comparison.
type Comparison struct {
	Parent, Change Summary
	// Pairs is how many (parent[i], change[i]) pairs were compared and
	// WinRate the share of them the change read better; ties count for
	// neither side.
	Pairs   int
	WinRate float64
	Verdict Verdict
}

// Summary is the median and quartiles of one side's samples.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
}

// Summarize computes the median and quartiles of xs.
func Summarize(xs []float64) Summary {
	return Summary{N: len(xs), Median: Median(xs), Q1: Quantile(xs, 0.25), Q3: Quantile(xs, 0.75)}
}

// Spread is the interquartile range as a share of the median's magnitude
// (0 when every sample is 0).
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Compare applies the benchmark's acceptance rule to one metric. parent[i]
// and change[i] form a pair (same workload and seed). bound is the share of
// the parent's median by which the change may be worse.
//
//   - improved: the change wins at least 9 of 10 pairs and the medians
//     differ, in the better direction, by more than the parent's IQR;
//   - unresolved: either side's IQR exceeds bound × median, unless every
//     change sample beats every parent sample (then no-worse);
//   - regressed: the change's median is worse by more than bound;
//   - no-worse: otherwise.
func Compare(parent, change []float64, lowerIsBetter bool, bound float64) Comparison {
	c := Comparison{Parent: Summarize(parent), Change: Summarize(change)}
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	c.Pairs = min(len(parent), len(change))
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if c.Pairs > 0 {
		c.WinRate = float64(wins) / float64(c.Pairs)
	}
	pm, cm := c.Parent.Median, c.Change.Median
	if c.Pairs > 0 && 10*wins >= 9*c.Pairs && better(cm, pm) && math.Abs(cm-pm) > c.Parent.Q3-c.Parent.Q1 {
		c.Verdict = Improved
		return c
	}
	if max(c.Parent.Spread(), c.Change.Spread()) > bound {
		c.Verdict = Unresolved
		if len(parent) > 0 && len(change) > 0 && allBetter(change, parent, better) {
			c.Verdict = NoWorse
		}
		return c
	}
	worse := cm - pm
	if !lowerIsBetter {
		worse = pm - cm
	}
	switch {
	case pm == 0 && worse > 0, pm != 0 && worse/math.Abs(pm) > bound:
		c.Verdict = Regressed
	default:
		c.Verdict = NoWorse
	}
	return c
}

// allBetter reports whether every sample of a reads better than every
// sample of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

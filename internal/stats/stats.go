// Package stats provides the statistical machinery the acceleration scheme is
// built on: running mean/variance accumulators and coefficient of variation
// (used to evaluate cluster uniformity, paper §4.2/Fig 6), the binomial
// learning-window solver (paper §4.3/Fig 7), and the one-sided Student-t
// bound used by the Statistical re-learning strategy (paper §4.4, Eq 4–8).
package stats

import "math"

// AtLeastOnce returns the probability that an event with per-trial probability
// p occurs at least once in n independent trials: 1 - (1-p)^n. This is the
// closed form of paper Eq (2)/(3) summed over k >= 1.
func AtLeastOnce(p float64, n int) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(n))
}

// Binomial returns the binomial probability P(X = k) for n trials with
// per-trial probability p (paper Eq 1). It works in log space to stay finite
// for the window sizes the paper sweeps.
func Binomial(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

func lchoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// LearningWindow returns the smallest learning window N such that a behavior
// cluster with probability of occurrence >= pmin appears at least once within
// the window with confidence >= doc (paper §4.3, Eq 3; Fig 7 plots this
// function). With pmin = 0.03 it yields ~99 at 95% confidence and ~152 at 99%.
func LearningWindow(pmin, doc float64) int {
	if pmin <= 0 || pmin >= 1 || doc <= 0 {
		return 1
	}
	if doc >= 1 {
		return math.MaxInt32
	}
	n := math.Log(1-doc) / math.Log(1-pmin)
	return int(math.Ceil(n))
}

// tOneSided95 tabulates the one-sided 95% Student-t critical value
// t_(df, 0.05) for small degrees of freedom; TOneSided95 interpolates and
// falls back to the asymptotic normal value 1.645 for large df. These are the
// values paper Eq (8) plugs in to upper-bound an outlier cluster's true
// probability of occurrence.
var tOneSided95 = []float64{
	// df = 1 .. 30
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// TOneSided95 returns the one-sided 95% Student-t critical value for the
// given degrees of freedom.
func TOneSided95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(tOneSided95):
		return tOneSided95[df-1]
	case df <= 40:
		return 1.684
	case df <= 60:
		return 1.671
	case df <= 120:
		return 1.658
	default:
		return 1.645
	}
}

// tTwoSided95 tabulates the two-sided 95% Student-t critical value
// t_(df, 0.025) for small degrees of freedom; TTwoSided95 falls back to the
// asymptotic normal value 1.960 for large df. The stratified-sampling
// estimator multiplies this by a stratum's standard error to produce the
// ± half-width reported next to every extrapolated figure.
var tTwoSided95 = []float64{
	// df = 1 .. 30
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TTwoSided95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TTwoSided95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(tTwoSided95):
		return tTwoSided95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// TUpperBound95 returns the one-sided 95% upper confidence bound
// mean + t_(m-1,0.05) * s / sqrt(m) for m observations with sample mean mean
// and sample standard deviation s (paper Eq 8). With fewer than 2 samples the
// bound is +Inf: no statistically meaningful statement can be made.
func TUpperBound95(mean, s float64, m int) float64 {
	if m < 2 {
		return math.Inf(1)
	}
	return mean + TOneSided95(m-1)*s/math.Sqrt(float64(m))
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

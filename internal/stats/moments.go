package stats

import "math"

// Moments is a running mean/variance accumulator (Welford's online
// algorithm): observation count, sample mean, and the sum of squared
// deviations from the mean (M2). The zero value is ready to use. Its fields
// are exported because they are also the on-disk representation the PLT
// snapshot format stores for every cluster statistic, and the algebra the
// warm-start and transfer paths use to fold a reloaded cluster's history
// with newly observed members without losing variance.
type Moments struct {
	N    int64
	Mean float64
	M2   float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// Merge returns the moments of the union of the two underlying samples,
// using the parallel-axis combination of Chan et al. Merging with an empty
// side returns the other side unchanged, so N=0 and N=1 accumulators (whose
// M2 is zero) combine exactly: variance information is neither invented nor
// lost.
func (m Moments) Merge(o Moments) Moments {
	if o.N == 0 {
		return m
	}
	if m.N == 0 {
		return o
	}
	n := m.N + o.N
	d := o.Mean - m.Mean
	return Moments{
		N:    n,
		Mean: m.Mean + d*float64(o.N)/float64(n),
		M2:   m.M2 + o.M2 + d*d*float64(m.N)*float64(o.N)/float64(n),
	}
}

// Scale returns the moments of the sample with every observation multiplied
// by s: the mean scales linearly and M2 quadratically, while N is unchanged —
// scaling does not add or remove information. Because an affine map of the
// underlying observations commutes with the Chan et al. union, Scale
// distributes over Merge: a.Scale(s).Merge(b.Scale(s)) == a.Merge(b).Scale(s).
// The cross-config transfer path relies on this to rescale a donor cluster's
// statistics before folding in fresh observations from the recipient config.
func (m Moments) Scale(s float64) Moments {
	return Moments{N: m.N, Mean: s * m.Mean, M2: s * s * m.M2}
}

// Var returns the unbiased sample variance (0 with fewer than 2 observations).
func (m Moments) Var() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N-1)
}

// Std returns the sample standard deviation.
func (m Moments) Std() float64 { return math.Sqrt(m.Var()) }

// CV returns the coefficient of variation: standard deviation divided by the
// mean. It is the cluster-uniformity metric of paper §4.2. A zero mean yields
// CV 0 to keep aggregate averages well defined.
func (m Moments) CV() float64 {
	if m.Mean == 0 {
		return 0
	}
	return math.Abs(m.Std() / m.Mean)
}

// CI95Half returns the half-width of the two-sided 95% confidence interval
// on the mean: t_(N-1, 0.025) * sqrt(Var/N). It is always well-defined —
// never NaN or Inf: a single observation or a zero-variance stratum has no
// measurable spread, so its half-width is 0 and the caller's error bar
// degrades gracefully instead of poisoning a whole table. Callers that need
// to distinguish "no spread" from "no information" check N themselves.
func (m Moments) CI95Half() float64 {
	if m.N < 2 {
		return 0
	}
	v := m.Var()
	if v <= 0 {
		return 0
	}
	return TTwoSided95(int(m.N-1)) * math.Sqrt(v/float64(m.N))
}

package sample

import (
	"fmt"
	"math"

	"fssim/internal/stats"
)

// StratumReport is the per-stratum view of a finished sampled run.
type StratumReport struct {
	Centroid     float64 // mean interval instruction count
	Detailed     int64   // representatives simulated in detail
	MeanCPI      float64 // mean representative CPI
	ExtraInsts   float64 // instructions extrapolated
	ExtraCycles  float64 // cycles extrapolated
	CIHalfCycles float64 // 95% half-width this stratum contributes
	Pooled       bool    // extrapolated from the pooled CPI (below MinPerStratum)
}

// Report is the aggregate estimator output of one sampled run. CIHalf is the
// two-sided 95% confidence half-width on the total extrapolated cycles:
// per-stratum, the CPI mean's Student-t half-width (stats.Moments.CI95Half)
// scales by the stratum's extrapolated instructions; strata combine in
// quadrature (independent estimates). Strata below MinPerStratum substitute
// the pooled CPI variance over their own sample count — conservative, and
// never NaN: zero-variance and single-representative strata contribute 0.
type Report struct {
	Strata       int
	Intervals    int64 // post-warm-up app intervals (Detailed + Extrapolated)
	Detailed     int64
	Extrapolated int64
	Outliers     int64
	UnderMin     int64
	DetInsts     uint64
	DetCycles    uint64
	ExtraInsts   float64
	ExtraCycles  float64
	CIHalf       float64 // 95% half-width on ExtraCycles, in cycles

	PerStratum []StratumReport
}

// Report computes the estimator output from the sampler's current state.
func (s *Sampler) Report() Report {
	r := Report{
		Strata:       len(s.table.Clusters),
		Detailed:     s.detailed,
		Extrapolated: s.extrapolated,
		Outliers:     s.outliers,
		UnderMin:     s.underMin,
		DetInsts:     s.detInsts,
		DetCycles:    s.detCycles,
	}
	r.Intervals = r.Detailed + r.Extrapolated
	pooledM := s.pooled
	for i, c := range s.table.Clusters {
		if i >= len(s.det) {
			break
		}
		m := s.winMoments(i)
		sr := StratumReport{
			Centroid:    c.Centroid,
			Detailed:    s.det[i],
			MeanCPI:     m.Mean,
			ExtraInsts:  s.extraInsts[i],
			ExtraCycles: s.extraCycles[i],
		}
		if sr.ExtraInsts > 0 {
			if m.N < int64(s.spec.MinPerStratum) || m.N < 2 {
				// Thin stratum: pooled CPI variance over this stratum's own
				// sample count (at least 1) — wide on purpose.
				sr.Pooled = true
				n := float64(m.N)
				if n < 1 {
					n = 1
				}
				if pooledM.N >= 2 && pooledM.Var() > 0 {
					half := stats.TTwoSided95(int(pooledM.N-1)) * math.Sqrt(pooledM.Var()/n)
					sr.CIHalfCycles = half * sr.ExtraInsts
				}
			} else {
				sr.CIHalfCycles = m.CI95Half() * sr.ExtraInsts
			}
		}
		r.ExtraInsts += sr.ExtraInsts
		r.ExtraCycles += sr.ExtraCycles
		r.CIHalf += sr.CIHalfCycles * sr.CIHalfCycles // quadrature
		r.PerStratum = append(r.PerStratum, sr)
	}
	r.CIHalf = math.Sqrt(r.CIHalf)
	return r
}

// Reduction returns the app-side detailed-interval reduction factor: how
// many times fewer intervals were simulated in detail than exist. 1 when
// nothing was extrapolated.
func (r Report) Reduction() float64 {
	if r.Detailed == 0 {
		if r.Intervals == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(r.Intervals) / float64(r.Detailed)
}

// Coverage returns the fraction of app intervals fast-forwarded.
func (r Report) Coverage() float64 {
	if r.Intervals == 0 {
		return 0
	}
	return float64(r.Extrapolated) / float64(r.Intervals)
}

// RelCI returns the 95% half-width relative to the given total cycle count
// (typically the run's total cycles): the "±x%" attached to sampled figures.
func (r Report) RelCI(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return r.CIHalf / float64(totalCycles)
}

// Summary renders the one-line form used by CLI output:
// "12 strata, 96 detailed + 1882 extrapolated (20.6x), ci ±0.41%".
func (r Report) Summary(totalCycles uint64) string {
	return fmt.Sprintf("%d strata, %d detailed + %d extrapolated (%.1fx), ci ±%.2f%%",
		r.Strata, r.Detailed, r.Extrapolated, r.Reduction(), 100*r.RelCI(totalCycles))
}

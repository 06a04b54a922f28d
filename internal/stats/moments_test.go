package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func momentsOf(xs ...float64) Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m
}

func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

func TestWelfordBasics(t *testing.T) {
	var m Moments
	if m.Mean != 0 || m.Std() != 0 || m.CV() != 0 {
		t.Fatal("zero value should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N != 8 {
		t.Fatalf("N = %d", m.N)
	}
	if got := m.Mean; math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Sample std of this classic set: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := m.Std(); math.Abs(got-want) > 1e-12 {
		t.Errorf("std = %v, want %v", got, want)
	}
	if got := m.CV(); math.Abs(got-want/5) > 1e-12 {
		t.Errorf("cv = %v, want %v", got, want/5)
	}
}

// TestWelfordMatchesNaive property-checks the online algorithm against the
// two-pass formula on random data.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%50) + 2
		xs := make([]float64, k)
		var m Moments
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			m.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(k)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(k-1)
		return math.Abs(m.Mean-mean) < 1e-9 && math.Abs(m.Var()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWelfordMerge property-checks that merging two accumulators equals
// accumulating the concatenation.
func TestWelfordMerge(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, all := Moments{}, Moments{}, Moments{}
		for i := 0; i < int(na%40)+1; i++ {
			x := rng.Float64() * 1000
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb%40)+1; i++ {
			x := rng.Float64() * 1000
			b.Add(x)
			all.Add(x)
		}
		a = a.Merge(b)
		return a.N == all.N &&
			math.Abs(a.Mean-all.Mean) < 1e-9 &&
			math.Abs(a.Var()-all.Var()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMomentsMergeMatchesDirectAccumulation is the parallel-axis contract:
// merging the moments of two disjoint sample halves must equal accumulating
// the concatenated sample directly.
func TestMomentsMergeMatchesDirectAccumulation(t *testing.T) {
	left := []float64{3, 1, 4, 1, 5, 9, 2.5}
	right := []float64{-6, 5, 3.5, 8.25}
	got := momentsOf(left...).Merge(momentsOf(right...))
	want := momentsOf(append(append([]float64{}, left...), right...)...)
	if got.N != want.N || !closeTo(got.Mean, want.Mean) || !closeTo(got.M2, want.M2) {
		t.Errorf("merged %+v, direct accumulation %+v", got, want)
	}
	if !closeTo(got.Var(), want.Var()) {
		t.Errorf("merged variance %g, direct %g", got.Var(), want.Var())
	}
}

// TestMomentsMergeEdgeCases pins the N=0 and N=1 behavior: empty sides are
// identities, and two single observations merge into the exact two-sample
// moments (mean of the pair, M2 = d²/2).
func TestMomentsMergeEdgeCases(t *testing.T) {
	var empty Moments
	one := momentsOf(7)

	if got := empty.Merge(empty); got != (Moments{}) {
		t.Errorf("empty.Merge(empty) = %+v, want zero", got)
	}
	if got := one.Merge(empty); got != one {
		t.Errorf("one.Merge(empty) = %+v, want %+v", got, one)
	}
	if got := empty.Merge(one); got != one {
		t.Errorf("empty.Merge(one) = %+v, want %+v", got, one)
	}

	got := momentsOf(2).Merge(momentsOf(10))
	want := momentsOf(2, 10)
	if got.N != 2 || !closeTo(got.Mean, 6) || !closeTo(got.M2, want.M2) {
		t.Errorf("singletons merged to %+v, want %+v", got, want)
	}
	if v := got.Var(); !closeTo(v, 32) { // ((2-6)² + (10-6)²) / (2-1)
		t.Errorf("two-sample variance %g, want 32", v)
	}

	// N=1 accumulators carry no variance; merging must not invent any beyond
	// the between-sample term.
	if momentsOf(5).M2 != 0 {
		t.Error("single observation must have M2 == 0")
	}
}

// TestMomentsVar pins the guard: fewer than two observations report zero
// variance rather than a division by zero.
func TestMomentsVar(t *testing.T) {
	if v := (Moments{}).Var(); v != 0 {
		t.Errorf("empty variance %g, want 0", v)
	}
	if v := momentsOf(42).Var(); v != 0 {
		t.Errorf("single-sample variance %g, want 0", v)
	}
}

// TestMomentsScaleMatchesDirectAccumulation checks Scale against the ground
// truth: scaling the moments must equal accumulating the scaled sample.
func TestMomentsScaleMatchesDirectAccumulation(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2.5, -6}
	for _, s := range []float64{0.25, 1, 2, 7.5} {
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = s * x
		}
		got := momentsOf(xs...).Scale(s)
		want := momentsOf(scaled...)
		if got.N != want.N || !closeTo(got.Mean, want.Mean) || !closeTo(got.M2, want.M2) {
			t.Errorf("scale %g: got %+v, direct accumulation %+v", s, got, want)
		}
	}
}

// TestMomentsScaleMergeCommute is the algebraic contract the transfer path
// depends on: rescaling a donor's statistics and then folding in (already
// rescaled) fresh observations must equal folding first and scaling the
// union — scale-then-merge and merge-then-scale agree.
func TestMomentsScaleMergeCommute(t *testing.T) {
	a := momentsOf(3, 1, 4, 1, 5)
	b := momentsOf(9, 2.5, -6, 5)
	for _, s := range []float64{0.1, 0.5, 2, 13} {
		stm := a.Scale(s).Merge(b.Scale(s))
		mts := a.Merge(b).Scale(s)
		if stm.N != mts.N || !closeTo(stm.Mean, mts.Mean) || !closeTo(stm.M2, mts.M2) {
			t.Errorf("scale %g: scale-then-merge %+v != merge-then-scale %+v", s, stm, mts)
		}
	}
	// Edge cases: empty and singleton sides keep the identity exactly.
	var empty Moments
	if got := empty.Scale(3); got != empty {
		t.Errorf("empty.Scale = %+v, want zero", got)
	}
	one := momentsOf(7)
	if got := one.Scale(2); got.N != 1 || !closeTo(got.Mean, 14) || got.M2 != 0 {
		t.Errorf("singleton scaled to %+v, want N=1 mean=14 M2=0", got)
	}
}

// TestCI95HalfEdgeCases pins the confidence-interval contract the sampling
// estimator leans on: CI95Half is well-defined — never NaN or Inf — for every
// degenerate accumulator a stratum can produce (empty, single observation,
// zero variance), and positive exactly when there is measurable spread over
// at least two observations.
func TestCI95HalfEdgeCases(t *testing.T) {
	finite := func(name string, m Moments) float64 {
		t.Helper()
		h := m.CI95Half()
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("%s: CI95Half = %v, want finite", name, h)
		}
		if h < 0 {
			t.Fatalf("%s: CI95Half = %v, want >= 0", name, h)
		}
		return h
	}

	if h := finite("empty", Moments{}); h != 0 {
		t.Errorf("empty moments: CI95Half = %v, want 0", h)
	}
	if h := finite("single", momentsOf(42.5)); h != 0 {
		t.Errorf("single observation: CI95Half = %v, want 0", h)
	}
	if h := finite("zero-variance", momentsOf(3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25)); h != 0 {
		t.Errorf("zero-variance stratum: CI95Half = %v, want 0", h)
	}
	if h := finite("spread", momentsOf(1, 2, 3, 4, 5)); h <= 0 {
		t.Errorf("spread sample: CI95Half = %v, want > 0", h)
	}
	// Negative M2 can only arise from corrupt deserialized state; Var clamps
	// at the N<2 guard but not above it, so verify the <=0 variance guard.
	if h := finite("corrupt", Moments{N: 5, Mean: 1, M2: -4}); h != 0 {
		t.Errorf("negative-M2 moments: CI95Half = %v, want 0", h)
	}
}

// TestMergeEmptyPreservesCI verifies that merging with empty moments is the
// identity in both directions — including for the derived CI — and that a
// merge of two empties stays empty rather than inventing spread.
func TestMergeEmptyPreservesCI(t *testing.T) {
	m := momentsOf(2, 4, 6, 8)
	for name, got := range map[string]Moments{
		"m.Merge(empty)": m.Merge(Moments{}),
		"empty.Merge(m)": (Moments{}).Merge(m),
	} {
		if got != m {
			t.Errorf("%s = %+v, want %+v", name, got, m)
		}
		if got.CI95Half() != m.CI95Half() {
			t.Errorf("%s: CI changed: %v vs %v", name, got.CI95Half(), m.CI95Half())
		}
	}
	both := (Moments{}).Merge(Moments{})
	if both.N != 0 || both.CI95Half() != 0 {
		t.Errorf("empty.Merge(empty) = %+v (CI %v), want zero", both, both.CI95Half())
	}
	// Merging two single-observation accumulators must produce real variance:
	// N=1 sides carry M2=0, and the parallel-axis term supplies the spread.
	ab := momentsOf(1).Merge(momentsOf(3))
	if ab.N != 2 || ab.Mean != 2 {
		t.Fatalf("merge of singletons: %+v, want N=2 Mean=2", ab)
	}
	if v := ab.Var(); v != 2 {
		t.Errorf("merge of singletons: Var = %v, want 2", v)
	}
	if h := ab.CI95Half(); math.IsNaN(h) || h <= 0 {
		t.Errorf("merge of singletons: CI95Half = %v, want positive finite", h)
	}
}

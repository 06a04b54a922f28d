package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAtLeastOnce(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want float64
	}{
		{0.5, 1, 0.5},
		{0.5, 2, 0.75},
		{0, 100, 0},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := AtLeastOnce(c.p, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AtLeastOnce(%v,%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

// TestBinomialSumsToAtLeastOnce verifies paper Eq 2: summing the binomial
// pmf over k >= 1 equals 1-(1-p)^N.
func TestBinomialSumsToAtLeastOnce(t *testing.T) {
	f := func(pRaw uint16, nRaw uint8) bool {
		p := float64(pRaw%999+1) / 1000
		n := int(nRaw%60) + 1
		var sum float64
		for k := 1; k <= n; k++ {
			sum += Binomial(n, k, p)
		}
		return math.Abs(sum-AtLeastOnce(p, n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFSums(t *testing.T) {
	for _, n := range []int{1, 5, 17, 40} {
		for _, p := range []float64{0.01, 0.3, 0.97} {
			var sum float64
			for k := 0; k <= n; k++ {
				sum += Binomial(n, k, p)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("pmf(n=%d,p=%v) sums to %v", n, p, sum)
			}
		}
	}
}

// TestLearningWindowPaperAnchors checks the paper's Fig 7 anchor points: at
// p_min = 3%, ~100 trials at 95% confidence and a little over 150 at 99%.
func TestLearningWindowPaperAnchors(t *testing.T) {
	if n := LearningWindow(0.03, 0.95); n < 95 || n > 105 {
		t.Errorf("window(0.03, 0.95) = %d, want ~100", n)
	}
	if n := LearningWindow(0.03, 0.99); n < 148 || n > 160 {
		t.Errorf("window(0.03, 0.99) = %d, want a little over 150", n)
	}
	if n := LearningWindow(0.2, 0.95); n > 20 {
		t.Errorf("window(0.2, 0.95) = %d, want small", n)
	}
}

// TestLearningWindowSufficient property-checks the defining inequality:
// the returned N satisfies the confidence bound and N-1 does not.
func TestLearningWindowSufficient(t *testing.T) {
	f := func(pRaw, dRaw uint16) bool {
		p := float64(pRaw%195+5) / 1000 // 0.005 .. 0.199
		doc := float64(dRaw%98+1) / 100 // 0.01 .. 0.98
		n := LearningWindow(p, doc)
		if AtLeastOnce(p, n) < doc-1e-12 {
			return false
		}
		return n == 1 || AtLeastOnce(p, n-1) < doc+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLearningWindowMonotone(t *testing.T) {
	prev := 1 << 30
	for p := 0.005; p <= 0.2; p += 0.005 {
		n := LearningWindow(p, 0.95)
		if n > prev {
			t.Errorf("window not monotonically decreasing at p=%v: %d > %d", p, n, prev)
		}
		prev = n
	}
}

func TestStudentT(t *testing.T) {
	if v := TOneSided95(1); math.Abs(v-6.314) > 1e-3 {
		t.Errorf("t(1) = %v", v)
	}
	if v := TOneSided95(10); math.Abs(v-1.812) > 1e-3 {
		t.Errorf("t(10) = %v", v)
	}
	if v := TOneSided95(1000); math.Abs(v-1.645) > 1e-3 {
		t.Errorf("t(inf) = %v", v)
	}
	// Monotonically decreasing in df.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TOneSided95(df)
		if v > prev {
			t.Errorf("t table not monotone at df=%d", df)
		}
		prev = v
	}
}

func TestTUpperBound95(t *testing.T) {
	if !math.IsInf(TUpperBound95(0.5, 0.1, 1), 1) {
		t.Error("single sample should give an unbounded estimate")
	}
	// Zero variance: bound equals the mean.
	if b := TUpperBound95(0.02, 0, 5); math.Abs(b-0.02) > 1e-12 {
		t.Errorf("bound = %v, want 0.02", b)
	}
	// More samples tighten the bound.
	loose := TUpperBound95(0.02, 0.01, 4)
	tight := TUpperBound95(0.02, 0.01, 25)
	if tight >= loose {
		t.Errorf("bound should tighten with samples: %v vs %v", tight, loose)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := GeoMean([]float64{-1, 4}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean should skip non-positive entries, got %v", g)
	}
}

func TestHist2D(t *testing.T) {
	h := NewHist2D(1000, 4000)
	// Three points in one bin, one in another.
	h.Add(1500, 5000)
	h.Add(1600, 4100)
	h.Add(1900, 7900)
	h.Add(9500, 100)
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.NonEmpty() != 2 {
		t.Fatalf("non-empty = %d, want 2", h.NonEmpty())
	}
	cells := h.Cells()
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].Count != 3 || cells[0].X != 1500 || cells[0].Y != 6000 {
		t.Errorf("bin 0 = %+v", cells[0])
	}
}

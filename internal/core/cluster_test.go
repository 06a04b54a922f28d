package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fssim/internal/machine"
)

func meas(cycles uint64) *machine.Measurement {
	return &machine.Measurement{Insts: 1000, Cycles: cycles}
}

// sig builds an instruction-count-only signature (the paper's default).
func sig(insts uint64) Signature { return Signature{Insts: insts} }

func TestClusterRange(t *testing.T) {
	c := &Cluster{Centroid: 1000}
	if !c.InRange(sig(1000), 0.05, 0) || !c.InRange(sig(1049), 0.05, 0) || !c.InRange(sig(951), 0.05, 0) {
		t.Error("in-range signatures rejected")
	}
	if c.InRange(sig(1051), 0.05, 0) || c.InRange(sig(949), 0.05, 0) {
		t.Error("out-of-range signatures accepted")
	}
}

func TestClusterCentroidIsMean(t *testing.T) {
	c := &Cluster{}
	for _, v := range []uint64{100, 110, 90, 105} {
		c.addMember(sig(v), meas(500))
	}
	if math.Abs(c.Centroid-101.25) > 1e-9 {
		t.Errorf("centroid = %v, want 101.25", c.Centroid)
	}
	if c.N != 4 {
		t.Errorf("N = %d", c.N)
	}
	if got := c.Perf.Cycles.Mean; got != 500 {
		t.Errorf("cycles mean = %v", got)
	}
}

func TestPLTLearnAndMatch(t *testing.T) {
	var plt PLT
	// Two well-separated behavior points.
	for i := 0; i < 10; i++ {
		plt.Learn(sig(1000), meas(5000), 0.05, 0, false)
		plt.Learn(sig(9000), meas(90000), 0.05, 0, false)
	}
	if len(plt.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(plt.Clusters))
	}
	if c := plt.Match(sig(1020), 0.05, 0, false); c == nil || math.Abs(c.Centroid-1000) > 1 {
		t.Errorf("match(1020) = %+v", c)
	}
	if c := plt.Match(sig(5000), 0.05, 0, false); c != nil {
		t.Errorf("match(5000) should be an outlier, got centroid %v", c.Centroid)
	}
	if c := plt.Nearest(sig(5000)); c == nil {
		t.Error("nearest(5000) = nil")
	}
}

// TestPLTMatchClosestCentroid checks the paper's tie-break: among clusters
// whose range contains the signature, the closest centroid wins.
func TestPLTMatchClosestCentroid(t *testing.T) {
	plt := PLT{Clusters: []*Cluster{
		{Centroid: 1000, N: 1},
		{Centroid: 1040, N: 1},
	}}
	if c := plt.Match(sig(1030), 0.05, 0, false); c == nil || c.Centroid != 1040 {
		t.Errorf("match(1030) = %+v, want centroid 1040", c)
	}
	if c := plt.Match(sig(1010), 0.05, 0, false); c == nil || c.Centroid != 1000 {
		t.Errorf("match(1010) = %+v, want centroid 1000", c)
	}
}

// TestPLTLearnedAlwaysMatches property-checks that a signature just learned
// matches the table (its cluster's centroid moved toward it).
func TestPLTLearnedAlwaysMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var plt PLT
		for i := 0; i < 200; i++ {
			v := uint64(rng.Intn(50000) + 50)
			plt.Learn(sig(v), meas(v*3), 0.05, 0, false)
			if plt.Match(sig(v), 0.05, 0, false) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPLTClusterCountBounded property-checks that clustering compresses:
// signatures drawn from K distinct levels (with small jitter) produce close
// to K clusters, not one per instance.
func TestPLTClusterCountBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	levels := []uint64{500, 2000, 8000, 30000}
	var plt PLT
	for i := 0; i < 1000; i++ {
		base := levels[rng.Intn(len(levels))]
		jitter := uint64(float64(base) * 0.02 * rng.Float64())
		plt.Learn(sig(base+jitter), meas(1000), 0.05, 0, false)
	}
	if len(plt.Clusters) > 2*len(levels) {
		t.Errorf("clusters = %d for %d levels", len(plt.Clusters), len(levels))
	}
}

func TestPredictionFromPerf(t *testing.T) {
	var p Perf
	p.add(&machine.Measurement{Insts: 100, Cycles: 400})
	p.add(&machine.Measurement{Insts: 100, Cycles: 600})
	var pred machine.Prediction
	p.predictInto(&pred)
	if pred.Cycles != 500 {
		t.Errorf("predicted cycles = %d, want 500", pred.Cycles)
	}
}

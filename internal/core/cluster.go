// Package core implements the paper's contribution: characterization and
// prediction of OS-service performance to accelerate full-system simulation.
//
// Each OS service gets a Performance Lookup Table (PLT) of scaled clusters
// keyed by the service interval's dynamic instruction count — the signature
// that is obtainable in fast emulation mode (paper §3, Fig 5). A
// statistically-derived initial learning window records behavior points; four
// re-learning strategies (Best-Match, Eager, Delayed, Statistical) govern how
// the scheme reacts to outlier signatures during prediction periods (paper
// §4.4); and the predictor replaces detailed simulation of a service instance
// with a PLT lookup plus cache-pollution injection (paper §4.5).
package core

import (
	"math"

	"fssim/internal/machine"
	"fssim/internal/stats"
)

// Signature identifies a performance behavior point. The paper's signature
// is the interval's dynamic instruction count (§3: cheap to obtain in
// emulation mode, and cycle-count clusters align well with instruction-count
// bins); machine.Signature additionally carries the instruction mix for the
// extended signature the paper names as future work.
type Signature = machine.Signature

// Perf accumulates the performance characteristics of the instances mapped
// to one cluster: cycles and the per-level cache activity needed both for
// prediction and for miss-rate bookkeeping.
type Perf struct {
	Cycles stats.Moments
	L1IM   stats.Moments
	L1DM   stats.Moments
	L2M    stats.Moments
	L1IA   stats.Moments
	L1DA   stats.Moments
	L2A    stats.Moments
	L2WB   stats.Moments
	IPC    stats.Moments
}

func (p *Perf) add(m *machine.Measurement) {
	p.Cycles.Add(float64(m.Cycles))
	p.L1IM.Add(float64(m.L1I.Misses))
	p.L1DM.Add(float64(m.L1D.Misses))
	p.L2M.Add(float64(m.L2.Misses))
	p.L1IA.Add(float64(m.L1I.Accesses))
	p.L1DA.Add(float64(m.L1D.Accesses))
	p.L2A.Add(float64(m.L2.Accesses))
	p.L2WB.Add(float64(m.L2.Writebacks))
	p.IPC.Add(m.IPC())
}

// predictInto fills out with the cluster means. The learner routes every
// prediction through its reusable scratch record, so the hot prediction
// path performs no per-interval allocation (the machine copies the fields
// out before the next prediction — see machine.IntervalSink's contract).
func (p *Perf) predictInto(out *machine.Prediction) {
	*out = machine.Prediction{
		Cycles:       uint64(math.Round(p.Cycles.Mean)),
		L1IMisses:    uint64(math.Round(p.L1IM.Mean)),
		L1DMisses:    uint64(math.Round(p.L1DM.Mean)),
		L2Misses:     uint64(math.Round(p.L2M.Mean)),
		L1IAccesses:  uint64(math.Round(p.L1IA.Mean)),
		L1DAccesses:  uint64(math.Round(p.L1DA.Mean)),
		L2Accesses:   uint64(math.Round(p.L2A.Mean)),
		L2Writebacks: uint64(math.Round(p.L2WB.Mean)),
	}
}

// Cluster is one scaled cluster (paper §4.2): a centroid over instruction
// counts with a range proportional to the centroid, plus the recorded
// performance of its member instances. MixCentroid tracks the mean
// loads/stores/branches of members for the extended mix signature.
type Cluster struct {
	Centroid    float64
	MixCentroid [3]float64
	N           int64
	Perf        Perf
}

// InRange reports whether sig falls within the cluster's scaled range
// [centroid*(1-frac), centroid*(1+frac)]. If abs > 0 a fixed-size range of
// ±abs instructions is used instead — the alternative the paper considered
// and rejected (§4.2: fixed bins are too coarse for short services and too
// fine for long ones); it is retained for the ablation study.
func (c *Cluster) InRange(sig Signature, frac, abs float64) bool {
	r := c.Centroid * frac
	if abs > 0 {
		r = abs
	}
	return math.Abs(float64(sig.Insts)-c.Centroid) <= r
}

// MixInRange additionally requires each instruction-mix component (loads,
// stores, branches) to fall within the scaled range of its centroid, with a
// small absolute slack so near-zero components do not fragment clusters.
// This is the extended signature the paper's §3 leaves as future work.
func (c *Cluster) MixInRange(sig Signature, frac float64) bool {
	comps := [3]float64{float64(sig.Loads), float64(sig.Stores), float64(sig.Branches)}
	for i, v := range comps {
		slack := c.MixCentroid[i] * frac
		if slack < 4 {
			slack = 4
		}
		if math.Abs(v-c.MixCentroid[i]) > slack {
			return false
		}
	}
	return true
}

// distance is the absolute centroid distance over instruction counts.
func (c *Cluster) distance(sig Signature) float64 {
	return math.Abs(float64(sig.Insts) - c.Centroid)
}

// addMember folds an instance into the cluster, updating the centroid as the
// running arithmetic mean of member signatures.
func (c *Cluster) addMember(sig Signature, m *machine.Measurement) {
	c.N++
	n := float64(c.N)
	c.Centroid += (float64(sig.Insts) - c.Centroid) / n
	c.MixCentroid[0] += (float64(sig.Loads) - c.MixCentroid[0]) / n
	c.MixCentroid[1] += (float64(sig.Stores) - c.MixCentroid[1]) / n
	c.MixCentroid[2] += (float64(sig.Branches) - c.MixCentroid[2]) / n
	if m != nil {
		c.Perf.add(m)
	}
}

// PLT is the Performance Lookup Table of one OS service.
type PLT struct {
	Clusters []*Cluster
}

// Match returns the best matching cluster for sig: among clusters whose
// range contains sig, the one with the closest centroid; nil if none is in
// range (an outlier). abs > 0 selects fixed-size ranges (see InRange);
// mix additionally requires the instruction-mix components to match.
//
// Ties are deterministic: when two in-range clusters are equidistant from
// sig, the lowest-index (earliest-learned) cluster wins — the strict `<`
// comparison never replaces an established best. Snapshot round trips
// preserve cluster order, so a warm-started table resolves ties exactly as
// the continuous run would have.
func (t *PLT) Match(sig Signature, frac, abs float64, mix bool) *Cluster {
	var best *Cluster
	for _, c := range t.Clusters {
		if !c.InRange(sig, frac, abs) {
			continue
		}
		if mix && !c.MixInRange(sig, frac) {
			continue
		}
		if best == nil || c.distance(sig) < best.distance(sig) {
			best = c
		}
	}
	return best
}

// Nearest returns the cluster with the closest centroid regardless of range
// (the fallback used to predict outlier instances), or nil if empty.
// Equidistant candidates resolve like Match: the lowest index wins.
func (t *PLT) Nearest(sig Signature) *Cluster {
	var best *Cluster
	for _, c := range t.Clusters {
		if best == nil || c.distance(sig) < best.distance(sig) {
			best = c
		}
	}
	return best
}

// Index returns c's position in the table — the cluster id interval spans
// are annotated with — or -1 when c is not in the table.
func (t *PLT) Index(c *Cluster) int {
	for i, x := range t.Clusters {
		if x == c {
			return i
		}
	}
	return -1
}

// Learn folds a detailed-simulation instance into the PLT: the matching
// cluster absorbs it, or a new cluster is created (paper §4.3).
func (t *PLT) Learn(sig Signature, m *machine.Measurement, frac, abs float64, mix bool) *Cluster {
	c := t.Match(sig, frac, abs, mix)
	if c == nil {
		c = &Cluster{}
		t.Clusters = append(t.Clusters, c)
	}
	c.addMember(sig, m)
	return c
}

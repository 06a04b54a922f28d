// The prior-import path: an analytic per-metric scaling model fitted from
// the donor and recipient coordinates, applied to the donor's per-service
// clusters to produce a *low-confidence* PLT prior for the recipient.
//
// The model is deliberately simple — square-root capacity laws and linear
// width/latency terms seeded from the machine model — because it does not
// have to be right, only close: Rescale caps every imported sample count at
// PriorWeight, so the recipient's first detailed intervals (a short refit
// window instead of the full learning window) dominate the priors in the
// Welford merge, and the divergence watchdog demotes any service whose
// transferred table keeps mispredicting. A bad transfer costs a re-learn; it
// never silently emits wrong predictions.

package transfer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"fssim/internal/core"
	"fssim/internal/stats"
)

// PriorWeight is the sample count every transferred statistic is capped at:
// the imported cluster behaves like one learned from this many observations,
// so roughly that many fresh recipient intervals outvote it.
const PriorWeight = 6

// RefitWindow is the shortened learning window a transferred learner runs
// before predicting: enough detailed intervals to refine (or expose) the
// scaled priors per service, an order of magnitude below the cold-start
// window (~100 at the paper's PMin/DoC).
const RefitWindow = 12

// ScaleModel holds the fitted per-metric multipliers taking donor cluster
// statistics to recipient priors. Access counts (L1IA, L1DA) are properties
// of the program, not the hierarchy, and always scale by 1.
type ScaleModel struct {
	L1IM float64 // L1I miss-count factor
	L1DM float64 // L1D miss-count factor
	L2M  float64 // L2 miss-count factor (the headline "scale=" in provenance)
	L2A  float64 // L2 access factor (follows the L1 miss factors)
	L2WB float64 // writeback factor (follows L2M)

	// Cycle reconstruction terms: per-cluster compute time scales with the
	// issue-width ratio, memory time with the rescaled L2 misses times the
	// recipient's per-miss penalty.
	Width                    float64 // donor IssueWidth / recipient IssueWidth
	MemPenDonor, MemPenRecip float64 // MemLatency + BusOccupancy per side
}

// missScale is the analytic cache model: miss count scales with the inverse
// square root of the capacity ratio (the classic sqrt capacity/miss-rate
// power law) and, more weakly, of the associativity ratio. Zero or missing
// geometry on either side contributes a neutral factor — FamilyHash keeps
// cacheless configs in their own family, so this is belt and braces.
func missScale(dSize, dAssoc, rSize, rAssoc int) float64 {
	f := 1.0
	if dSize > 0 && rSize > 0 {
		f *= math.Sqrt(float64(dSize) / float64(rSize))
	}
	if dAssoc > 0 && rAssoc > 0 {
		f *= math.Sqrt(float64(dAssoc) / float64(rAssoc))
	}
	return f
}

// FitAnalytic seeds the scaling model from the two coordinate vectors.
func FitAnalytic(donor, recip Coords) ScaleModel {
	m := ScaleModel{
		L1IM: missScale(donor.L1ISize, donor.L1IAssoc, recip.L1ISize, recip.L1IAssoc),
		L1DM: missScale(donor.L1DSize, donor.L1DAssoc, recip.L1DSize, recip.L1DAssoc),
		L2M:  missScale(donor.L2Size, donor.L2Assoc, recip.L2Size, recip.L2Assoc),

		Width:       1,
		MemPenDonor: float64(donor.MemLatency + donor.BusOccupancy),
		MemPenRecip: float64(recip.MemLatency + recip.BusOccupancy),
	}
	// L2 accesses are the L1 misses arriving below, so their factor follows
	// the L1 factors; writebacks are evicted dirty L2 lines and follow L2M.
	m.L2A = (m.L1IM + m.L1DM) / 2
	m.L2WB = m.L2M
	if donor.IssueWidth > 0 && recip.IssueWidth > 0 {
		m.Width = float64(donor.IssueWidth) / float64(recip.IssueWidth)
	}
	return m
}

// cycleBounds clamp the per-cluster cycle factor: a scaling model that asks
// for more than these is evidence of a mis-fit, not a prediction.
const (
	minCycleFactor = 0.05
	maxCycleFactor = 20.0
)

// maxMemFrac caps the share of a cluster's cycles attributed to L2 misses.
// The overlap-free bound (misses x full penalty) routinely *exceeds* total
// cycles — MSHRs overlap most of the raw product — so it is usable only as
// an upper estimate, never taken at face value.
const maxMemFrac = 0.75

// scaleCluster maps one donor cluster to a recipient prior. The signature
// (Centroid: interval instruction count; MixCentroid: instruction mix) is a
// property of the workload, not the machine, and passes through unchanged —
// only the performance moments are rescaled. Sample counts are capped at
// PriorWeight with variance preserved (M2 shrunk proportionally to the
// retained degrees of freedom).
func scaleCluster(c core.Cluster, m ScaleModel) core.Cluster {
	oldCyc := c.Perf.Cycles.Mean
	oldL2M := c.Perf.L2M.Mean

	// Reconstruct cycles multiplicatively: estimate the memory-bound share of
	// the cluster's cycles (the overlap-free bound, capped at maxMemFrac),
	// scale the compute share by the width ratio and the memory share by the
	// miss-count and per-miss-penalty ratios. The estimate errs toward
	// over-attributing memory time, which only over-states how much a larger
	// cache helps — a direction the refit window and capped prior weight
	// absorb.
	factor := 1.0
	if oldCyc > 0 {
		memFrac := 0.0
		if oldL2M > 0 && m.MemPenDonor > 0 {
			memFrac = math.Min(oldL2M*m.MemPenDonor/oldCyc, maxMemFrac)
		}
		penRatio := 1.0
		if m.MemPenDonor > 0 {
			penRatio = m.MemPenRecip / m.MemPenDonor
		}
		newRel := (1-memFrac)*m.Width + memFrac*m.L2M*penRatio
		factor = math.Min(math.Max(newRel, minCycleFactor), maxCycleFactor)
	}

	p := c.Perf
	p.Cycles = p.Cycles.Scale(factor)
	p.IPC = p.IPC.Scale(1 / factor)
	p.L1IM = p.L1IM.Scale(m.L1IM)
	p.L1DM = p.L1DM.Scale(m.L1DM)
	p.L2M = p.L2M.Scale(m.L2M)
	p.L2A = p.L2A.Scale(m.L2A)
	p.L2WB = p.L2WB.Scale(m.L2WB)
	// L1IA, L1DA: access counts are workload properties; unchanged.

	c.N = capN(c.N)
	for _, mom := range []*stats.Moments{
		&p.Cycles, &p.L1IM, &p.L1DM, &p.L2M, &p.L1IA, &p.L1DA, &p.L2A, &p.L2WB, &p.IPC,
	} {
		*mom = capMoments(*mom)
	}
	c.Perf = p
	return c
}

func capN(n int64) int64 {
	if n > PriorWeight {
		return PriorWeight
	}
	return n
}

// capMoments truncates a sample to PriorWeight observations, keeping the
// mean and the unbiased variance: M2' = Var * (N'-1).
func capMoments(m stats.Moments) stats.Moments {
	if m.N <= PriorWeight {
		return m
	}
	v := m.Var()
	m.M2 = v * float64(PriorWeight-1)
	m.N = PriorWeight
	return m
}

// ErrNoClusters reports a donor snapshot with nothing transferable: every
// learner was still warming up or learning when it was exported.
var ErrNoClusters = errors.New("transfer: donor snapshot has no learned clusters")

// Rescale converts a donor accelerator state into a recipient prior state:
// every learned cluster is rescaled by the model and demoted to a
// low-confidence prior, and every learner restarts in the learning phase
// with the shortened RefitWindow — its first detailed intervals on the
// recipient config refine (and, through the Welford merge, dominate) the
// priors before the first prediction is emitted. Learners without clusters
// are dropped; the accelerator re-creates them on demand as cold learners.
//
// targetParams are the recipient run's learner parameters; the returned
// state carries them, and each learner starts from core.NewLearnerState
// under them: fresh rings sized to their windows and the divergence
// watchdog armed whenever they arm it — a transferred table is exactly the
// situation the watchdog exists for. The result always passes
// core.AccelState.Validate.
func Rescale(st *core.AccelState, model ScaleModel, targetParams core.Params) (*core.AccelState, error) {
	out := &core.AccelState{Params: targetParams, Deferred: st.Deferred}
	for _, l := range st.Learners {
		if len(l.Table.Clusters) == 0 {
			continue
		}
		nl := core.NewLearnerState(l.Service, targetParams)
		nl.Phase, nl.WarmLeft, nl.LearnLeft = 1, 0, RefitWindow // learning: refit before predicting
		nl.Table.Clusters = make([]*core.Cluster, 0, len(l.Table.Clusters))
		for _, c := range l.Table.Clusters {
			sc := scaleCluster(*c, model)
			nl.Table.Clusters = append(nl.Table.Clusters, &sc)
			nl.ObsCycles += float64(sc.N) * sc.Perf.Cycles.Mean
			nl.ObsInsts += float64(sc.N) * sc.Centroid
		}
		out.Learners = append(out.Learners, nl)
	}
	if len(out.Learners) == 0 {
		return nil, ErrNoClusters
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transfer: rescaled state invalid: %w", err)
	}
	return out, nil
}

// TransferHash is the provenance trailer stored in a transferred snapshot
// and bound into its replay address: it names the exact donor (by learn
// hash) and the exact model applied. A cold run, or a run transferred from a
// different donor or under a different model version, can never replay a
// transferred snapshot — the replay address differs and the warm path falls
// back to a counted cold start.
func TransferHash(donorLearnHash uint64, model ScaleModel) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-transfer|v%d|donor=%016x|model=%x,%x,%x,%x,%x,%x,%x,%x",
		Version, donorLearnHash,
		math.Float64bits(model.L1IM), math.Float64bits(model.L1DM),
		math.Float64bits(model.L2M), math.Float64bits(model.L2A),
		math.Float64bits(model.L2WB), math.Float64bits(model.Width),
		math.Float64bits(model.MemPenDonor), math.Float64bits(model.MemPenRecip))
	return h.Sum64()
}

// Provenance describes one applied transfer, for summary lines and the run
// API: where the priors came from, how far away the donor was, and the
// headline scale factor (the L2 miss factor — the quantity an L2 sweep is
// about).
type Provenance struct {
	DonorBench string  // donor benchmark name
	DonorAddr  string  // donor snapshot address, "family/learnhash" hex
	Distance   float64 // parameter distance donor -> recipient
	Scale      float64 // headline factor: ScaleModel.L2M
	Hash       uint64  // TransferHash of this import
}

// String renders the summary-line form used by fsbench and fssim.
func (p Provenance) String() string {
	return fmt.Sprintf("transferred-from=%s/%s scale=%.3f", p.DonorBench, p.DonorAddr, p.Scale)
}

package core

import (
	"errors"
	"fmt"
	"math"

	"fssim/internal/isa"
	"fssim/internal/stats"
)

// This file is the snapshot boundary of the acceleration engine. A Learner
// keeps all of its persistent state in its embedded LearnerState — PLT
// clusters with full moments, phase, outlier bookkeeping, watchdog rings,
// counters — so Export is one deep copy of each learner's state and Import
// validates a state and installs a copy of it. There is no second form to
// keep in step: a field added to LearnerState is in every exported state
// (internal/pltstore's codec still writes fields one by one). The
// invariant warm-starting rests on: an imported accelerator produces exactly
// the predictions (and exactly the re-export) the original would have, so a
// warm-started run's predictions come from the same clusters a continuous
// run would have used.
//
// Import is the trust boundary for on-disk state (internal/pltstore feeds it
// decoded snapshot files): it strictly validates everything — NaN or
// negative centroids, out-of-range cluster counts, inconsistent ring sizes —
// and rejects with ErrBadState rather than letting a corrupt file poison
// predictions.

// ErrBadState tags every validation failure of an accelerator snapshot.
// Callers degrade to a cold start when they see it.
var ErrBadState = errors.New("core: invalid accelerator state")

// Snapshot size limits. Real runs stay orders of magnitude below these; a
// crafted or corrupt snapshot that exceeds them is rejected instead of
// allocating unbounded memory.
const (
	maxSnapshotLearners = 1 << 12
	maxSnapshotClusters = 1 << 16
	maxSnapshotOutliers = 1 << 16
	maxSnapshotEPOs     = 1 << 20
	maxSnapshotRing     = 1 << 20
	maxOutlierID        = 30000 // NextOutID wraps here (see Learner.outlier)
)

// moments lists the nine accumulators for validation.
func (ps Perf) moments() []stats.Moments {
	return []stats.Moments{ps.Cycles, ps.L1IM, ps.L1DM, ps.L2M,
		ps.L1IA, ps.L1DA, ps.L2A, ps.L2WB, ps.IPC}
}

// AccelState is the full exported state of an Accelerator: its parameters
// and a deep copy of every learner's state in first-seen order, so the type
// is directly serializable (internal/pltstore) and comparable with
// reflect.DeepEqual in tests.
type AccelState struct {
	Params   Params
	Deferred bool
	Learners []LearnerState
}

// Export deep-copies the accelerator's complete state. The returned state
// shares no memory with the accelerator, so it stays valid (and immutable)
// however the run continues.
func (a *Accelerator) Export() *AccelState {
	st := &AccelState{Params: a.params, Deferred: a.deferred}
	if len(a.order) > 0 {
		st.Learners = make([]LearnerState, 0, len(a.order))
	}
	for _, svc := range a.order {
		st.Learners = append(st.Learners, a.learners[svc].clone())
	}
	return st
}

// clone returns a deep copy of the state that shares no memory with ls.
// Empty lists come back nil, as the snapshot codec decodes them.
func (ls *LearnerState) clone() LearnerState {
	c := *ls
	c.Ring = append([]int16(nil), ls.Ring...)
	c.WDRing = append([]bool(nil), ls.WDRing...)
	c.Outliers = nil
	if len(ls.Outliers) > 0 {
		c.Outliers = make([]OutlierState, len(ls.Outliers))
		for i, o := range ls.Outliers {
			o.EPOs = append([]float64(nil), o.EPOs...)
			c.Outliers[i] = o
		}
	}
	c.Table.Clusters = nil
	if n := len(ls.Table.Clusters); n > 0 {
		cs := make([]Cluster, n)
		c.Table.Clusters = make([]*Cluster, n)
		for i, cl := range ls.Table.Clusters {
			cs[i] = *cl
			c.Table.Clusters[i] = &cs[i]
		}
	}
	return c
}

// Import rebuilds the accelerator from an exported state. The receiver must
// be freshly constructed (no learners yet); st is validated in full before
// anything is applied, so a rejected import leaves the accelerator unchanged
// and ready for a cold start. Every validation failure wraps ErrBadState.
//
// The round trip is exact: NewAccelerator(p).Import(st) followed by Export
// reproduces st, and the imported learners predict from byte-identical
// tables — the warm-start invariant.
func (a *Accelerator) Import(st *AccelState) error {
	if len(a.learners) > 0 {
		return fmt.Errorf("%w: import into a non-empty accelerator", ErrBadState)
	}
	if err := st.Validate(); err != nil {
		return err
	}
	a.params = st.Params
	a.deferred = st.Deferred
	for i := range st.Learners {
		l := &Learner{LearnerState: st.Learners[i].clone(), params: st.Params, trc: a.trc}
		a.learners[l.Service] = l
		a.order = append(a.order, l.Service)
	}
	return nil
}

// Validate checks the state in full: parameter sanity, phase ranges, ring
// consistency with the parameters, finite non-negative centroids, positive
// member counts, bounded cluster and outlier populations, and well-formed
// moments. Every failure wraps ErrBadState and names the offending learner.
func (st *AccelState) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadState, fmt.Sprintf(format, args...))
	}
	if st == nil {
		return bad("nil state")
	}
	p := st.Params
	if p.MovingWindow <= 0 || p.MovingWindow > maxSnapshotRing {
		return bad("moving window %d out of range", p.MovingWindow)
	}
	if !finite(p.PMin) || !finite(p.DoC) || !finite(p.RangeFrac) ||
		!finite(p.FixedRange) || !finite(p.WatchdogThreshold) {
		return bad("non-finite parameter")
	}
	if p.Strategy < BestMatch || p.Strategy > Statistical {
		return bad("unknown strategy %d", p.Strategy)
	}
	if len(st.Learners) > maxSnapshotLearners {
		return bad("%d learners exceeds limit %d", len(st.Learners), maxSnapshotLearners)
	}
	seen := make(map[isa.ServiceID]bool, len(st.Learners))
	for i := range st.Learners {
		ls := &st.Learners[i]
		if seen[ls.Service] {
			return bad("learner %d: duplicate service %v", i, ls.Service)
		}
		seen[ls.Service] = true
		if err := ls.validate(p); err != nil {
			return fmt.Errorf("%w (learner %d, service %v)", err, i, ls.Service)
		}
	}
	return nil
}

func (ls *LearnerState) validate(p Params) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadState, fmt.Sprintf(format, args...))
	}
	if ls.Phase < phaseWarmup || ls.Phase > phaseDegraded {
		return bad("phase %d out of range", ls.Phase)
	}
	if ls.Seen < 0 || ls.Learned < 0 || ls.Predicted < 0 || ls.OutlierN < 0 ||
		ls.Relearns < 0 || ls.Degrades < 0 {
		return bad("negative counter")
	}
	if !finite(ls.ObsCycles) || ls.ObsCycles < 0 || !finite(ls.ObsInsts) || ls.ObsInsts < 0 {
		return bad("invalid observed cycle/instruction totals (%g, %g)", ls.ObsCycles, ls.ObsInsts)
	}
	if len(ls.Ring) != p.MovingWindow {
		return bad("ring length %d != moving window %d", len(ls.Ring), p.MovingWindow)
	}
	if ls.RingPos < 0 || ls.RingPos >= len(ls.Ring) {
		return bad("ring position %d out of range", ls.RingPos)
	}
	for _, id := range ls.Ring {
		if id < -1 || int(id) > maxOutlierID {
			return bad("ring outlier id %d out of range", id)
		}
	}
	if ls.NextOutID < 1 || ls.NextOutID > maxOutlierID+1 {
		return bad("next outlier id %d out of range", ls.NextOutID)
	}
	if len(ls.WDRing) > maxSnapshotRing {
		return bad("watchdog ring length %d exceeds limit", len(ls.WDRing))
	}
	if len(ls.WDRing) == 0 {
		if ls.WDPos != 0 || ls.WDLen != 0 || ls.WDOut != 0 {
			return bad("watchdog bookkeeping without a ring")
		}
	} else {
		if ls.WDPos < 0 || ls.WDPos >= len(ls.WDRing) {
			return bad("watchdog position %d out of range", ls.WDPos)
		}
		if ls.WDLen < 0 || ls.WDLen > len(ls.WDRing) {
			return bad("watchdog fill %d out of range", ls.WDLen)
		}
		out := 0
		for _, v := range ls.WDRing {
			if v {
				out++
			}
		}
		if ls.WDOut != out {
			return bad("watchdog outlier count %d inconsistent with ring (%d set)", ls.WDOut, out)
		}
	}
	if ls.HoldLeft < 0 || ls.RearmSeen < 0 || ls.RearmMatched < 0 || ls.RearmMatched > ls.RearmSeen {
		return bad("invalid re-arm bookkeeping")
	}
	if len(ls.Outliers) > maxSnapshotOutliers {
		return bad("%d outlier entries exceeds limit %d", len(ls.Outliers), maxSnapshotOutliers)
	}
	for j, o := range ls.Outliers {
		if o.ID < 1 || o.ID > maxOutlierID {
			return bad("outlier %d: id %d out of range", j, o.ID)
		}
		if !finite(o.Centroid) || o.Centroid < 0 {
			return bad("outlier %d: invalid centroid %g", j, o.Centroid)
		}
		if o.N < 1 {
			return bad("outlier %d: member count %d < 1", j, o.N)
		}
		if len(o.EPOs) > maxSnapshotEPOs {
			return bad("outlier %d: %d probability estimates exceeds limit", j, len(o.EPOs))
		}
		for _, e := range o.EPOs {
			if !finite(e) || e < 0 || e > 1 {
				return bad("outlier %d: probability estimate %g outside [0,1]", j, e)
			}
		}
	}
	if len(ls.Table.Clusters) > maxSnapshotClusters {
		return bad("%d clusters exceeds limit %d", len(ls.Table.Clusters), maxSnapshotClusters)
	}
	for j, c := range ls.Table.Clusters {
		if !finite(c.Centroid) || c.Centroid < 0 {
			return bad("cluster %d: invalid centroid %g", j, c.Centroid)
		}
		for _, m := range c.MixCentroid {
			if !finite(m) || m < 0 {
				return bad("cluster %d: invalid mix centroid %g", j, m)
			}
		}
		if c.N < 1 {
			return bad("cluster %d: member count %d < 1", j, c.N)
		}
		for k, m := range c.Perf.moments() {
			if m.N < 0 || m.N > c.N {
				return bad("cluster %d: moment %d count %d outside [0,%d]", j, k, m.N, c.N)
			}
			if !finite(m.Mean) || !finite(m.M2) || m.M2 < 0 {
				return bad("cluster %d: moment %d not finite or negative M2 (mean %g, M2 %g)",
					j, k, m.Mean, m.M2)
			}
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

package core

import (
	"sort"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/trace"
)

// Accelerator is the machine-facing engine: one Learner per OS service type,
// dispatched at every service interval boundary. Attach it to a machine
// running in Accelerated mode via Machine.SetSink.
type Accelerator struct {
	params   Params
	learners map[isa.ServiceID]*Learner
	order    []isa.ServiceID // creation order for stable reporting
	// deferred suppresses learning during a workload's warm-up period (the
	// paper measures after skipping warm-up requests); Arm enables it.
	deferred bool
	trc      *traceHooks // nil unless a recorder is attached
}

// traceHooks fans the run's trace recorder and pre-resolved instruments into
// the accelerator's learners. Every hook is a no-op on a nil receiver, so the
// learner hot paths pay a single nil check when tracing is off.
type traceHooks struct {
	rec      *trace.Recorder
	hits     *trace.Counter
	outliers *trace.Counter
	learned  *trace.Counter
	relearns *trace.Counter
	degrades *trace.Counter
}

// predicted records a PLT hit and stages the matched cluster id for the span
// the machine is about to emit.
func (h *traceHooks) predicted(cluster int) {
	if h == nil {
		return
	}
	h.hits.Inc()
	h.rec.Annotate(cluster, false)
}

// outlier records a prediction whose signature matched no cluster.
func (h *traceHooks) outlier() {
	if h == nil {
		return
	}
	h.outliers.Inc()
	h.rec.Annotate(-1, true)
}

// observed records a detailed instance folded into the PLT.
func (h *traceHooks) observed(cluster int) {
	if h == nil {
		return
	}
	h.learned.Inc()
	h.rec.Annotate(cluster, false)
}

func (h *traceHooks) relearn(svc isa.ServiceID) {
	if h == nil {
		return
	}
	h.relearns.Inc()
	h.rec.InstantNow("relearn " + svc.String())
}

func (h *traceHooks) degrade(svc isa.ServiceID) {
	if h == nil {
		return
	}
	h.degrades.Inc()
	h.rec.InstantNow("degrade " + svc.String())
}

// phase marks a learner phase transition on the timeline.
func (h *traceHooks) phase(svc isa.ServiceID, name string) {
	if h == nil {
		return
	}
	h.rec.InstantNow("phase " + name + " " + svc.String())
}

// SetRecorder attaches the run's trace recorder: prediction outcomes annotate
// interval spans with their PLT cluster id, learner phase transitions and
// watchdog degrades become instant events, and the PLT counters land in the
// recorder's metrics registry. A nil recorder detaches (tracing off).
func (a *Accelerator) SetRecorder(r *trace.Recorder) {
	if r == nil {
		a.trc = nil
	} else {
		reg := r.Metrics()
		a.trc = &traceHooks{
			rec:      r,
			hits:     reg.Counter("plt.hits"),
			outliers: reg.Counter("plt.outliers"),
			learned:  reg.Counter("plt.learned"),
			relearns: reg.Counter("learner.relearns"),
			degrades: reg.Counter("learner.degrades"),
		}
	}
	for _, l := range a.learners {
		l.trc = a.trc
	}
}

// NewAccelerator returns an accelerator with the given parameters.
func NewAccelerator(p Params) *Accelerator {
	if p.MovingWindow <= 0 {
		p.MovingWindow = 100
	}
	return &Accelerator{params: p, learners: make(map[isa.ServiceID]*Learner)}
}

var _ machine.IntervalSink = (*Accelerator)(nil)

func (a *Accelerator) learner(svc isa.ServiceID) *Learner {
	l := a.learners[svc]
	if l == nil {
		l = NewLearner(svc, a.params)
		l.trc = a.trc
		a.learners[svc] = l
		a.order = append(a.order, svc)
	}
	return l
}

// Defer suppresses learning until Arm is called: every interval runs
// detailed and is ignored. Used while a workload warms up.
func (a *Accelerator) Defer() { a.deferred = true }

// Arm enables the scheme after a deferred warm-up.
func (a *Accelerator) Arm() { a.deferred = false }

// OnServiceStart implements machine.IntervalSink: it decides per instance
// whether to run detailed simulation (learning) or emulation (prediction),
// supplying the service's mean CPI for the machine's virtual clock.
func (a *Accelerator) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	if a.deferred {
		return true, 1
	}
	l := a.learner(svc)
	return l.WantDetailed(), l.MinClusterCPI()
}

// OnServiceEnd implements machine.IntervalSink: detailed instances feed the
// learner; emulated instances get their performance predicted from the PLT.
func (a *Accelerator) OnServiceEnd(svc isa.ServiceID, sig machine.Signature, meas *machine.Measurement) *machine.Prediction {
	if a.deferred {
		return nil
	}
	l := a.learner(svc)
	if meas != nil {
		l.Observe(sig, meas)
		return nil
	}
	return l.Predict(sig)
}

// Params returns the accelerator's configuration.
func (a *Accelerator) Params() Params { return a.params }

// Learners returns the per-service learners in first-seen order.
func (a *Accelerator) Learners() []*Learner {
	out := make([]*Learner, 0, len(a.order))
	for _, svc := range a.order {
		out = append(out, a.learners[svc])
	}
	return out
}

// Summary aggregates learner counters across services.
type Summary struct {
	Services  int
	Learned   int64
	Predicted int64
	Outliers  int64
	Relearns  int64
	Degrades  int64
	Clusters  int
}

// Coverage returns predicted / (learned + predicted) — the fraction of OS
// service invocations whose detailed simulation was skipped.
func (s Summary) Coverage() float64 {
	total := s.Learned + s.Predicted
	if total == 0 {
		return 0
	}
	return float64(s.Predicted) / float64(total)
}

// Summary returns aggregate counters.
func (a *Accelerator) Summary() Summary {
	var s Summary
	s.Services = len(a.learners)
	for _, l := range a.learners {
		// Warm-up instances are neither learned nor predicted but were fully
		// simulated; count them against coverage via Seen.
		s.Learned += l.Seen - l.Predicted
		s.Predicted += l.Predicted
		s.Outliers += l.OutlierN
		s.Relearns += l.Relearns
		s.Degrades += l.Degrades
		s.Clusters += len(l.Table.Clusters)
	}
	return s
}

// ServiceReport is a per-service summary row for diagnostics and the
// characterization tools.
type ServiceReport struct {
	Service   isa.ServiceID
	Seen      int64
	Clusters  int
	Predicted int64
	Outliers  int64
	Relearns  int64
	Degrades  int64
	// Phase is the learner's current phase name; OutlierRate its outlier
	// fraction over the watchdog window (0 when the watchdog is disabled).
	Phase       string
	OutlierRate float64
}

// Report returns per-service rows sorted by invocation count (descending),
// ties in first-seen order.
func (a *Accelerator) Report() []ServiceReport {
	out := make([]ServiceReport, 0, len(a.learners))
	for _, l := range a.Learners() {
		out = append(out, ServiceReport{
			Service: l.Service, Seen: l.Seen, Clusters: len(l.Table.Clusters),
			Predicted: l.Predicted, Outliers: l.OutlierN, Relearns: l.Relearns,
			Degrades: l.Degrades, Phase: l.PhaseName(), OutlierRate: l.OutlierRate(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seen > out[j].Seen })
	return out
}

// Health is the guardrail-state summary: how many services sit in each phase,
// how many degrade transitions have fired, and the worst per-service outlier
// rate — the at-a-glance view fsbench and Accelerator users surface to decide
// whether predictions are currently trustworthy.
type Health struct {
	Watchdog   bool // whether the divergence watchdog is armed
	Services   int
	Predicting int
	Learning   int // includes warm-up
	Degraded   int
	Degrades   int64 // total degrade transitions across services
	// WorstOutlierRate is the highest per-service outlier fraction over the
	// watchdog window; WorstService names the service exhibiting it.
	WorstOutlierRate float64
	WorstService     isa.ServiceID
}

// Healthy reports whether no service is currently degraded.
func (h Health) Healthy() bool { return h.Degraded == 0 }

// Health returns the accelerator's guardrail-state summary.
func (a *Accelerator) Health() Health {
	h := Health{Watchdog: a.params.WatchdogThreshold > 0, Services: len(a.learners)}
	for _, svc := range a.order {
		l := a.learners[svc]
		switch l.Phase {
		case phasePredicting:
			h.Predicting++
		case phaseDegraded:
			h.Degraded++
		default:
			h.Learning++
		}
		h.Degrades += l.Degrades
		if r := l.OutlierRate(); r > h.WorstOutlierRate {
			h.WorstOutlierRate = r
			h.WorstService = l.Service
		}
	}
	return h
}

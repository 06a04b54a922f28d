package core

import (
	"fmt"
	"strings"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
)

// Strategy selects the re-learning policy used when prediction-period
// signatures mismatch every PLT entry (paper §4.4).
type Strategy int

const (
	// BestMatch never re-learns: outliers are predicted from the nearest
	// centroid. Highest coverage, lowest accuracy.
	BestMatch Strategy = iota
	// Eager re-learns on every outlier. Best accuracy, lowest coverage.
	Eager
	// Delayed re-learns once an outlier cluster has been seen
	// DelayedThreshold times.
	Delayed
	// Statistical re-learns when a one-sided 95% Student-t upper bound on an
	// outlier cluster's estimated probability of occurrence reaches PMin.
	Statistical
)

var strategyNames = [...]string{"Best-Match", "Eager", "Delayed", "Statistical"}

func (s Strategy) String() string { return strategyNames[s] }

// ParseStrategy resolves a strategy name, case-insensitively: "" or
// "statistical", "best-match" (also "bestmatch"), "eager" and "delayed".
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "statistical":
		return Statistical, nil
	case "best-match", "bestmatch":
		return BestMatch, nil
	case "eager":
		return Eager, nil
	case "delayed":
		return Delayed, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want statistical, best-match, eager or delayed)", s)
}

// Strategies lists all four in the paper's comparison order (Fig 11).
func Strategies() []Strategy { return []Strategy{BestMatch, Statistical, Delayed, Eager} }

// Params collects the scheme's tunables with the paper's defaults.
type Params struct {
	Strategy  Strategy
	PMin      float64 // minimum probability of occurrence to capture (0.03)
	DoC       float64 // degree of confidence for the learning window (0.95)
	RangeFrac float64 // scaled-cluster range fraction (0.05 = ±5%)
	// WarmupSkip delays the start of initial learning until the service has
	// occurred this many times, avoiding cold-start effects (paper §4.4).
	WarmupSkip int
	// LearnWindow overrides the statically derived initial learning window
	// (0 = derive from PMin and DoC; ≈100 at 95%).
	LearnWindow int
	// DelayedThreshold is the outlier count that triggers re-learning under
	// the Delayed strategy.
	DelayedThreshold int
	// MinEPOs is the number of probability estimates required before the
	// Statistical strategy tests its hypothesis.
	MinEPOs int
	// MovingWindow is W, the span of invocations over which each estimated
	// probability of occurrence is computed.
	MovingWindow int
	// FixedRange, when positive, replaces scaled cluster ranges with fixed
	// ±FixedRange-instruction bins — the alternative the paper rejects in
	// §4.2, kept for the ablation study.
	FixedRange float64
	// MixSignature extends the signature from the instruction count alone to
	// the instruction mix (count + loads + stores + branches), all still
	// obtainable in emulation mode — the future-work direction named in the
	// paper's §3. Finer signatures distinguish aliased behavior points at
	// some cost in learning time and coverage.
	MixSignature bool
	// WatchdogThreshold, when positive, arms the divergence watchdog: once
	// the outlier fraction over the last WatchdogWindow predictions reaches
	// the threshold, the learner degrades back to detailed simulation and
	// only re-arms prediction after re-learning converges (new observations
	// matching the rebuilt table). 0 (the default) disables the watchdog,
	// preserving the paper's strategy behavior exactly.
	WatchdogThreshold float64
	// WatchdogWindow is the prediction span the outlier fraction is evaluated
	// over (default: MovingWindow).
	WatchdogWindow int
}

// DefaultWatchdogThreshold is the guardrail configuration fsbench and the
// fault experiments arm: degrade a service once 15% of its recent
// predictions were outliers. Healthy steady-state workloads stay in the low
// single digits (the paper captures >= 97% of behavior by design: PMin 3%),
// so this trips only under genuine behavior drift.
const DefaultWatchdogThreshold = 0.15

// DefaultWatchdogWindow is the prediction span the armed watchdog evaluates
// the outlier fraction over. Deliberately shorter than the strategies'
// MovingWindow (100): the watchdog is a burst detector — a fault that shifts
// a service's behavior produces a dense run of outliers — and a short window
// both reacts faster and fills (the rate is only meaningful over a full
// window) for services with modest invocation counts.
const DefaultWatchdogWindow = 40

// DefaultParams returns the paper's configuration: Statistical strategy,
// p_min = 3%, 95% confidence (learning window ~100), ±5% scaled clusters,
// warmup skip of 5, Delayed threshold 4, ≥4 EPOs over W = 100.
func DefaultParams() Params {
	return Params{
		Strategy:         Statistical,
		PMin:             0.03,
		DoC:              0.95,
		RangeFrac:        0.05,
		WarmupSkip:       5,
		DelayedThreshold: 4,
		MinEPOs:          4,
		MovingWindow:     100,
	}
}

// Window returns the effective initial learning window.
func (p Params) Window() int {
	if p.LearnWindow > 0 {
		return p.LearnWindow
	}
	return stats.LearningWindow(p.PMin, p.DoC)
}

type phase int

const (
	phaseWarmup phase = iota
	phaseLearning
	phasePredicting
	// phaseDegraded is the watchdog's fallback state: prediction diverged, so
	// every instance runs detailed again until the rebuilt table matches the
	// service's current behavior (see Observe's re-arm test).
	phaseDegraded
)

// outlierEntry is a special PLT entry for a signature cluster observed
// during prediction periods that matches no learned cluster. It carries no
// performance numbers — only occurrence bookkeeping (paper §4.4).
type outlierEntry struct {
	id       int
	centroid float64
	n        int64
	epos     []float64
}

func (o *outlierEntry) inRange(sig Signature, frac float64) bool {
	d := float64(sig.Insts) - o.centroid
	if d < 0 {
		d = -d
	}
	return d <= o.centroid*frac
}

// Learner runs the learning/prediction state machine of one OS service.
type Learner struct {
	Svc    isa.ServiceID
	Table  PLT
	params Params
	trc    *traceHooks // shared with the owning Accelerator; nil = tracing off

	phase     phase
	seen      int64
	warmLeft  int
	learnLeft int

	// ring of the last MovingWindow invocation outcomes: the outlier-entry
	// id each invocation matched, or -1 (matched a learned cluster /
	// detailed simulation).
	ring    []int16
	ringPos int

	outliers  []*outlierEntry
	nextOutID int

	// Divergence watchdog (Params.WatchdogThreshold > 0): a ring of the last
	// WatchdogWindow prediction outcomes (true = outlier) whose running sum
	// trips the degrade transition.
	wdRing []bool
	wdPos  int
	wdLen  int
	wdOut  int
	// Degraded-phase re-arm bookkeeping: of the last holdLeft observations,
	// how many matched the (rebuilding) table.
	holdLeft     int
	rearmSeen    int
	rearmMatched int

	// Counters for evaluation.
	Learned   int64 // instances fully simulated and recorded
	Predicted int64 // instances fast-forwarded
	Outliers  int64 // predicted instances with no in-range cluster
	Relearns  int64 // re-learning periods triggered
	Degrades  int64 // watchdog degrade transitions

	// CPI estimation over all observed (detailed) instances; drives the
	// machine's virtual clock during fast-forwarded intervals.
	obsCycles float64
	obsInsts  float64

	// predScratch is the reusable prediction record Predict returns a
	// pointer into; the machine consumes it field-wise before the next
	// interval closes (see machine.IntervalSink), so steady-state
	// prediction allocates nothing.
	predScratch machine.Prediction
}

// NewLearner returns a learner for svc.
func NewLearner(svc isa.ServiceID, p Params) *Learner {
	l := &Learner{
		Svc: svc, params: p,
		phase:     phaseWarmup,
		warmLeft:  p.WarmupSkip,
		ring:      make([]int16, p.MovingWindow),
		nextOutID: 1, // 0 is reserved; the ring's "no outlier" marker is -1
	}
	for i := range l.ring {
		l.ring[i] = -1
	}
	if p.WatchdogThreshold > 0 {
		w := p.WatchdogWindow
		if w <= 0 {
			w = p.MovingWindow
		}
		if w <= 0 {
			w = 100
		}
		l.wdRing = make([]bool, w)
	}
	return l
}

// WantDetailed reports whether the next instance should be fully simulated
// (warm-up and learning periods) or fast-forwarded (prediction periods).
func (l *Learner) WantDetailed() bool { return l.phase != phasePredicting }

// Phase returns a human-readable phase name (diagnostics).
func (l *Learner) Phase() string {
	return [...]string{"warmup", "learning", "predicting", "degraded"}[l.phase]
}

// OutlierRate returns the outlier fraction over the watchdog window (0 while
// the watchdog is disabled or its window has not filled yet).
func (l *Learner) OutlierRate() float64 {
	if l.wdLen == 0 {
		return 0
	}
	return float64(l.wdOut) / float64(l.wdLen)
}

// wdPush records one prediction outcome in the watchdog ring.
func (l *Learner) wdPush(outlier bool) {
	if len(l.wdRing) == 0 {
		return
	}
	if l.wdLen == len(l.wdRing) {
		if l.wdRing[l.wdPos] {
			l.wdOut--
		}
	} else {
		l.wdLen++
	}
	l.wdRing[l.wdPos] = outlier
	if outlier {
		l.wdOut++
	}
	l.wdPos = (l.wdPos + 1) % len(l.wdRing)
}

// wdTripped reports whether the full watchdog window's outlier fraction has
// reached the configured threshold.
func (l *Learner) wdTripped() bool {
	return l.wdLen == len(l.wdRing) && len(l.wdRing) > 0 &&
		float64(l.wdOut)/float64(l.wdLen) >= l.params.WatchdogThreshold
}

// wdReset clears the watchdog ring (on degrade, so the re-armed predictor
// starts with a clean window).
func (l *Learner) wdReset() {
	for i := range l.wdRing {
		l.wdRing[i] = false
	}
	l.wdPos, l.wdLen, l.wdOut = 0, 0, 0
}

// degrade is the watchdog transition: back to detailed simulation, with the
// accumulated outlier entries discarded — they describe behavior the rebuilt
// table is about to capture properly.
func (l *Learner) degrade() {
	l.phase = phaseDegraded
	l.holdLeft = l.params.Window()
	l.rearmSeen, l.rearmMatched = 0, 0
	l.outliers = nil
	l.Degrades++
	l.wdReset()
	l.trc.degrade(l.Svc)
}

func (l *Learner) pushRing(outID int16) {
	if len(l.ring) == 0 {
		return
	}
	l.ring[l.ringPos] = outID
	l.ringPos = (l.ringPos + 1) % len(l.ring)
}

// countInWindow returns how often outlier id occurred in the last W
// invocations.
func (l *Learner) countInWindow(id int16) int {
	n := 0
	for _, v := range l.ring {
		if v == id {
			n++
		}
	}
	return n
}

// CPI returns the service's mean cycles per instruction over the instances
// observed in detail (1.0 before any observation).
func (l *Learner) CPI() float64 {
	if l.obsInsts == 0 {
		return 1
	}
	return l.obsCycles / l.obsInsts
}

// MinClusterCPI returns the smallest per-cluster mean CPI — the conservative
// rate for the machine's virtual clock during fast-forwarding. Clusters that
// include I/O waits have enormous CPIs; advancing at the cheapest cluster's
// rate guarantees the virtual clock undershoots, and the final cluster
// prediction supplies the remainder.
func (l *Learner) MinClusterCPI() float64 {
	best := 0.0
	for _, c := range l.Table.Clusters {
		if c.Centroid <= 0 {
			continue
		}
		cpi := c.Perf.Cycles.Mean / c.Centroid
		if best == 0 || cpi < best {
			best = cpi
		}
	}
	if best == 0 {
		return l.CPI()
	}
	return best
}

// Observe folds a detailed-simulation instance into the learner (warm-up or
// learning period).
func (l *Learner) Observe(sig Signature, m *machine.Measurement) {
	l.seen++
	l.pushRing(-1)
	l.obsCycles += float64(m.Cycles)
	l.obsInsts += float64(m.Insts)
	switch l.phase {
	case phaseWarmup:
		// Cold-start instances are simulated but not recorded (their cache
		// behavior is not representative — paper §4.4).
		l.warmLeft--
		if l.warmLeft <= 0 {
			l.phase = phaseLearning
			l.learnLeft = l.params.Window()
			l.trc.phase(l.Svc, "learning")
		}
	case phaseLearning:
		c := l.Table.Learn(sig, m, l.params.RangeFrac, l.params.FixedRange, l.params.MixSignature)
		l.trc.observed(l.Table.Index(c))
		l.Learned++
		l.learnLeft--
		if l.learnLeft <= 0 {
			l.phase = phasePredicting
			l.trc.phase(l.Svc, "predicting")
		}
	case phaseDegraded:
		// Watchdog fallback: re-learn in detail and test convergence — the
		// fraction of recent observations the rebuilt table already matches.
		// Prediction re-arms only once the table tracks current behavior; a
		// service that keeps drifting stays (accurately) detailed.
		matched := l.Table.Match(sig, l.params.RangeFrac, l.params.FixedRange, l.params.MixSignature) != nil
		c := l.Table.Learn(sig, m, l.params.RangeFrac, l.params.FixedRange, l.params.MixSignature)
		l.trc.observed(l.Table.Index(c))
		l.Learned++
		l.rearmSeen++
		if matched {
			l.rearmMatched++
		}
		l.holdLeft--
		if l.holdLeft <= 0 {
			if float64(l.rearmMatched) >= (1-l.params.WatchdogThreshold)*float64(l.rearmSeen) {
				l.phase = phasePredicting
				l.trc.phase(l.Svc, "predicting")
			} else {
				l.holdLeft = l.params.Window()
				l.rearmSeen, l.rearmMatched = 0, 0
			}
		}
	default:
		// Detailed instance while predicting should not happen; record it
		// anyway — information is information.
		c := l.Table.Learn(sig, m, l.params.RangeFrac, l.params.FixedRange, l.params.MixSignature)
		l.trc.observed(l.Table.Index(c))
		l.Learned++
	}
}

// Predict returns the performance prediction for a fast-forwarded instance
// with the given signature, applying the re-learning strategy on mismatch.
func (l *Learner) Predict(sig Signature) *machine.Prediction {
	l.seen++
	l.Predicted++
	if c := l.Table.Match(sig, l.params.RangeFrac, l.params.FixedRange, l.params.MixSignature); c != nil {
		l.pushRing(-1)
		l.wdPush(false)
		l.trc.predicted(l.Table.Index(c))
		c.Perf.predictInto(&l.predScratch)
		return &l.predScratch
	}

	// Outlier: predict from the nearest centroid, then decide re-learning.
	l.Outliers++
	l.wdPush(true)
	l.trc.outlier()
	pred := l.fallback(sig)
	switch l.params.Strategy {
	case BestMatch:
		l.pushRing(-1)
	case Eager:
		l.pushRing(-1)
		l.triggerRelearn()
	case Delayed:
		o := l.outlier(sig)
		l.pushRing(int16(o.id))
		if o.n >= int64(l.params.DelayedThreshold) {
			l.triggerRelearn()
		}
	case Statistical:
		o := l.outlier(sig)
		l.pushRing(int16(o.id))
		// Each match contributes one estimated probability of occurrence
		// over its own moving window (paper Eq 4-5).
		epo := float64(l.countInWindow(int16(o.id))) / float64(len(l.ring))
		o.epos = append(o.epos, epo)
		if len(o.epos) >= l.params.MinEPOs {
			var w stats.Moments
			for _, p := range o.epos {
				w.Add(p)
			}
			bound := stats.TUpperBound95(w.Mean, w.Std(), len(o.epos))
			// If we cannot be 95% confident the true probability of
			// occurrence is below p_min, conservatively re-learn (Eq 8).
			if bound >= l.params.PMin {
				l.triggerRelearn()
			}
		}
	}
	// The divergence watchdog overrides the strategy once the outlier rate
	// over its window crosses the threshold: whatever the strategy decided
	// (Best-Match in particular decides nothing), fall back to detailed
	// simulation. A strategy-triggered re-learn already left predicting mode;
	// the watchdog only fires if the learner would otherwise keep predicting.
	if l.phase == phasePredicting && l.wdTripped() {
		l.degrade()
	}
	return pred
}

// fallback predicts an outlier from the nearest cluster, scaled is NOT
// applied — the paper predicts directly from the closest centroid's stats.
func (l *Learner) fallback(sig Signature) *machine.Prediction {
	if c := l.Table.Nearest(sig); c != nil {
		c.Perf.predictInto(&l.predScratch)
	} else {
		// Empty table (pathological): assume IPC 1 and no misses.
		l.predScratch = machine.Prediction{Cycles: sig.Insts}
	}
	return &l.predScratch
}

// outlier finds or creates the outlier entry matching sig.
func (l *Learner) outlier(sig Signature) *outlierEntry {
	var best *outlierEntry
	for _, o := range l.outliers {
		if !o.inRange(sig, l.params.RangeFrac) {
			continue
		}
		if best == nil ||
			absf(o.centroid-float64(sig.Insts)) < absf(best.centroid-float64(sig.Insts)) {
			best = o
		}
	}
	if best == nil {
		best = &outlierEntry{id: l.nextOutID}
		l.nextOutID++
		if l.nextOutID > 30000 {
			l.nextOutID = 1 // int16 ring ids wrap; ancient ids are long gone
		}
		l.outliers = append(l.outliers, best)
	}
	best.n++
	best.centroid += (float64(sig.Insts) - best.centroid) / float64(best.n)
	return best
}

// triggerRelearn starts a re-learning period of the same size as the initial
// window and clears all outlier entries (paper §4.4).
func (l *Learner) triggerRelearn() {
	l.phase = phaseLearning
	l.learnLeft = l.params.Window()
	l.outliers = nil
	l.Relearns++
	l.trc.relearn(l.Svc)
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

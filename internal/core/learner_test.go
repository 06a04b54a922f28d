package core

import (
	"testing"

	"fssim/internal/isa"
	"fssim/internal/machine"
)

func newTestLearner(strat Strategy) *Learner {
	p := DefaultParams()
	p.Strategy = strat
	p.LearnWindow = 20 // small windows keep the tests readable
	p.WarmupSkip = 2
	return NewLearner(isa.Sys(isa.SysRead), p)
}

func feedMeas(insts, cycles uint64) *machine.Measurement {
	return &machine.Measurement{Insts: insts, Cycles: cycles}
}

// driveWarmupAndLearning pushes the learner through warm-up and its initial
// window with a single stable behavior point.
func driveWarmupAndLearning(l *Learner, insts, cycles uint64) {
	for l.WantDetailed() {
		l.Observe(sig(insts), feedMeas(insts, cycles))
	}
}

func TestLearnerPhases(t *testing.T) {
	l := newTestLearner(Statistical)
	if !l.WantDetailed() {
		t.Fatal("fresh learner should want detailed simulation")
	}
	// Warm-up instances are simulated but not recorded.
	l.Observe(sig(1000), feedMeas(1000, 5000))
	l.Observe(sig(1000), feedMeas(1000, 5000))
	if len(l.Table.Clusters) != 0 {
		t.Fatal("warm-up instances must not be recorded")
	}
	for i := 0; i < 20; i++ {
		if !l.WantDetailed() {
			t.Fatalf("learning ended early at %d", i)
		}
		l.Observe(sig(1000), feedMeas(1000, 5000))
	}
	if l.WantDetailed() {
		t.Fatal("learner should predict after its window")
	}
	if len(l.Table.Clusters) != 1 {
		t.Fatalf("clusters = %d", len(l.Table.Clusters))
	}
}

func TestLearnerPredictsClusterMean(t *testing.T) {
	l := newTestLearner(Statistical)
	driveWarmupAndLearning(l, 1000, 5000)
	pred := l.Predict(sig(1005))
	if pred.Cycles != 5000 {
		t.Errorf("predicted cycles = %d, want 5000", pred.Cycles)
	}
	if l.Outliers != 0 {
		t.Errorf("in-range prediction counted as outlier")
	}
}

func TestBestMatchNeverRelearns(t *testing.T) {
	l := newTestLearner(BestMatch)
	driveWarmupAndLearning(l, 1000, 5000)
	for i := 0; i < 50; i++ {
		l.Predict(sig(40000)) // far outlier every time
	}
	if l.Relearns != 0 {
		t.Errorf("Best-Match re-learned %d times", l.Relearns)
	}
	if l.WantDetailed() {
		t.Error("Best-Match fell out of prediction mode")
	}
	if l.Outliers != 50 {
		t.Errorf("outliers = %d", l.Outliers)
	}
}

func TestEagerRelearnsImmediately(t *testing.T) {
	l := newTestLearner(Eager)
	driveWarmupAndLearning(l, 1000, 5000)
	l.Predict(sig(40000))
	if l.Relearns != 1 {
		t.Fatalf("relearns = %d, want 1", l.Relearns)
	}
	if !l.WantDetailed() {
		t.Fatal("Eager should re-enter learning after one outlier")
	}
}

func TestDelayedRelearnsAtThreshold(t *testing.T) {
	l := newTestLearner(Delayed)
	driveWarmupAndLearning(l, 1000, 5000)
	for i := 0; i < 3; i++ {
		l.Predict(sig(40000))
		if l.Relearns != 0 {
			t.Fatalf("re-learned after %d outliers (threshold 4)", i+1)
		}
	}
	l.Predict(sig(40000))
	if l.Relearns != 1 {
		t.Fatalf("relearns = %d after 4 outliers", l.Relearns)
	}
}

// TestDelayedDistinctOutliersDontAccumulate checks that outlier occurrences
// only count toward re-learning when they form one cluster.
func TestDelayedDistinctOutliersDontAccumulate(t *testing.T) {
	l := newTestLearner(Delayed)
	driveWarmupAndLearning(l, 1000, 5000)
	for _, v := range []uint64{40000, 80000, 120000} {
		l.Predict(sig(v))
	}
	if l.Relearns != 0 {
		t.Errorf("distinct outliers triggered re-learning")
	}
}

// TestStatisticalRelearnsOnFrequentOutlier: an outlier cluster appearing
// often gets a high estimated probability of occurrence; the Student-t upper
// bound exceeds p_min and re-learning triggers (paper Eq 8).
func TestStatisticalRelearnsOnFrequentOutlier(t *testing.T) {
	l := newTestLearner(Statistical)
	driveWarmupAndLearning(l, 1000, 5000)
	// The new behavior point appears on every invocation: EPOs pile up fast.
	n := 0
	for l.Relearns == 0 && n < 50 {
		l.Predict(sig(40000))
		n++
	}
	if l.Relearns != 1 {
		t.Fatalf("frequent outlier never triggered statistical re-learning")
	}
	if n < l.params.MinEPOs {
		t.Fatalf("re-learned after only %d occurrences (< MinEPOs)", n)
	}
	// After re-learning, detailed instances absorb the new cluster.
	for l.WantDetailed() {
		l.Observe(sig(40000), feedMeas(40000, 99000))
	}
	if pred := l.Predict(sig(40100)); pred.Cycles != 99000 {
		t.Errorf("new behavior point predicts %d, want 99000", pred.Cycles)
	}
}

// TestStatisticalToleratesRareOutlier: an outlier with a low probability of
// occurrence (its EPOs stay well under p_min) must NOT trigger re-learning.
func TestStatisticalToleratesRareOutlier(t *testing.T) {
	p := DefaultParams()
	p.Strategy = Statistical
	p.LearnWindow = 20
	p.WarmupSkip = 2
	p.MovingWindow = 400 // rare outlier: ~1% probability of occurrence
	l := NewLearner(isa.Sys(isa.SysRead), p)
	driveWarmupAndLearning(l, 1000, 5000)
	// 1 outlier per 100 invocations over 400-wide windows: EPO ~ 0.01 < 3%.
	for round := 0; round < 8; round++ {
		for i := 0; i < 99; i++ {
			l.Predict(sig(1000))
		}
		l.Predict(sig(40000))
	}
	if l.Relearns != 0 {
		t.Errorf("rare outlier (PO~1%%) triggered re-learning %d times", l.Relearns)
	}
}

func TestOutlierFallbackUsesNearest(t *testing.T) {
	l := newTestLearner(BestMatch)
	driveWarmupAndLearning(l, 1000, 5000)
	// Add a second behavior point via a forced relearn path: observe directly.
	l.Observe(sig(10000), feedMeas(10000, 77000))
	if pred := l.Predict(sig(9000)); pred.Cycles != 77000 {
		t.Errorf("outlier predicted %d, want nearest cluster's 77000", pred.Cycles)
	}
	if pred := l.Predict(sig(1500)); pred.Cycles != 5000 {
		t.Errorf("outlier predicted %d, want nearest cluster's 5000", pred.Cycles)
	}
}

func TestLearnerCPI(t *testing.T) {
	l := newTestLearner(Statistical)
	if l.CPI() != 1 {
		t.Errorf("default CPI = %v", l.CPI())
	}
	driveWarmupAndLearning(l, 1000, 3000)
	if got := l.CPI(); got != 3 {
		t.Errorf("CPI = %v, want 3", got)
	}
	if got := l.MinClusterCPI(); got != 3 {
		t.Errorf("MinClusterCPI = %v, want 3", got)
	}
}

func TestAcceleratorDispatch(t *testing.T) {
	a := NewAccelerator(Params{
		Strategy: Statistical, PMin: 0.03, DoC: 0.95, RangeFrac: 0.05,
		WarmupSkip: 1, LearnWindow: 3, DelayedThreshold: 4, MinEPOs: 4,
		MovingWindow: 100,
	})
	svcA, svcB := isa.Sys(isa.SysRead), isa.Irq(isa.IrqTimer)
	// Independent learners per service.
	for i := 0; i < 4; i++ {
		det, _ := a.OnServiceStart(svcA)
		if !det {
			t.Fatalf("instance %d of svcA should be detailed", i)
		}
		a.OnServiceEnd(svcA, sig(1000), feedMeas(1000, 2000))
	}
	if det, _ := a.OnServiceStart(svcA); det {
		t.Fatal("svcA should now predict")
	}
	if det, _ := a.OnServiceStart(svcB); !det {
		t.Fatal("svcB is fresh and should be detailed")
	}
	pred := a.OnServiceEnd(svcA, sig(1000), nil)
	if pred == nil || pred.Cycles != 2000 {
		t.Fatalf("prediction = %+v", pred)
	}
	sum := a.Summary()
	if sum.Services != 2 || sum.Predicted != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(a.Report()) != 2 {
		t.Fatal("report rows != 2")
	}
}

func TestAcceleratorDeferArm(t *testing.T) {
	a := NewAccelerator(DefaultParams())
	a.Defer()
	for i := 0; i < 500; i++ {
		det, _ := a.OnServiceStart(isa.Sys(isa.SysRead))
		if !det {
			t.Fatal("deferred accelerator must stay detailed")
		}
		a.OnServiceEnd(isa.Sys(isa.SysRead), sig(1000), feedMeas(1000, 2000))
	}
	if s := a.Summary(); s.Learned != 0 {
		t.Fatalf("deferred accelerator recorded %d instances", s.Learned)
	}
	a.Arm()
	a.OnServiceEnd(isa.Sys(isa.SysRead), sig(1000), feedMeas(1000, 2000))
	if s := a.Summary(); s.Learned == 0 {
		t.Fatal("armed accelerator did not record")
	}
}

func TestStrategiesStringer(t *testing.T) {
	if len(Strategies()) != 4 {
		t.Fatal("want 4 strategies")
	}
	names := map[string]bool{}
	for _, s := range Strategies() {
		names[s.String()] = true
	}
	for _, want := range []string{"Best-Match", "Eager", "Delayed", "Statistical"} {
		if !names[want] {
			t.Errorf("missing strategy %s", want)
		}
	}
}

func TestParamsWindowDefaults(t *testing.T) {
	p := DefaultParams()
	if w := p.Window(); w < 95 || w > 105 {
		t.Errorf("default window = %d, want ~100 (paper)", w)
	}
	p.LearnWindow = 42
	if p.Window() != 42 {
		t.Error("explicit window ignored")
	}
}

// TestMixSignatureSeparatesAliases: two behavior points with the SAME
// instruction count but different instruction mixes alias under the paper's
// count-only signature and are separated by the extended mix signature
// (the §3 future-work direction).
func TestMixSignatureSeparatesAliases(t *testing.T) {
	a := Signature{Insts: 2000, Loads: 800, Stores: 100, Branches: 200}
	b := Signature{Insts: 2000, Loads: 100, Stores: 800, Branches: 200}

	// Count-only: both land in one cluster; the prediction is a blur.
	var plain PLT
	for i := 0; i < 20; i++ {
		plain.Learn(a, feedMeas(2000, 3000), 0.05, 0, false)
		plain.Learn(b, feedMeas(2000, 30000), 0.05, 0, false)
	}
	if len(plain.Clusters) != 1 {
		t.Fatalf("count-only clusters = %d, want 1 (aliased)", len(plain.Clusters))
	}

	// Mix signature: distinct clusters with sharp predictions.
	var mix PLT
	for i := 0; i < 20; i++ {
		mix.Learn(a, feedMeas(2000, 3000), 0.05, 0, true)
		mix.Learn(b, feedMeas(2000, 30000), 0.05, 0, true)
	}
	if len(mix.Clusters) != 2 {
		t.Fatalf("mix clusters = %d, want 2", len(mix.Clusters))
	}
	ca := mix.Match(a, 0.05, 0, true)
	cb := mix.Match(b, 0.05, 0, true)
	if ca == nil || cb == nil || ca == cb {
		t.Fatal("mix signature failed to separate the aliases")
	}
	if ca.Perf.Cycles.Mean != 3000 || cb.Perf.Cycles.Mean != 30000 {
		t.Errorf("cluster means blurred: %v / %v",
			ca.Perf.Cycles.Mean, cb.Perf.Cycles.Mean)
	}
}

// newWatchdogLearner builds a learner with the divergence watchdog armed over
// a small window so the tests can trip it with a handful of predictions.
func newWatchdogLearner(window int, threshold float64) *Learner {
	p := DefaultParams()
	p.Strategy = BestMatch // no re-learning trigger of its own: watchdog-only
	p.LearnWindow = 10
	p.WarmupSkip = 1
	p.WatchdogThreshold = threshold
	p.WatchdogWindow = window
	return NewLearner(isa.Sys(isa.SysRead), p)
}

func TestFallbackEmptyTable(t *testing.T) {
	l := newTestLearner(BestMatch)
	// No learning at all: the table is empty and the fallback must still
	// produce a usable prediction (IPC 1, no misses).
	pred := l.fallback(sig(1234))
	if pred == nil || pred.Cycles != 1234 {
		t.Fatalf("empty-table fallback = %+v, want Cycles=1234", pred)
	}
	// With a learned cluster, the fallback predicts from the nearest centroid.
	driveWarmupAndLearning(l, 1000, 5000)
	if pred := l.fallback(sig(40000)); pred.Cycles != 5000 {
		t.Errorf("nearest-centroid fallback = %d, want 5000", pred.Cycles)
	}
}

func TestTriggerRelearnResetsState(t *testing.T) {
	l := newTestLearner(BestMatch)
	driveWarmupAndLearning(l, 1000, 5000)
	if l.WantDetailed() {
		t.Fatal("learner not predicting after its window")
	}
	l.triggerRelearn()
	if !l.WantDetailed() {
		t.Fatal("triggerRelearn did not leave prediction mode")
	}
	if l.Relearns != 1 || l.outliers != nil || l.learnLeft != l.params.Window() {
		t.Errorf("relearn state: relearns=%d outliers=%v learnLeft=%d",
			l.Relearns, l.outliers, l.learnLeft)
	}
}

// TestWatchdogDisabledByDefault: with the paper's default parameters the
// watchdog never arms — a sustained outlier storm under Best-Match keeps
// predicting, exactly as before the guardrail existed.
func TestWatchdogDisabledByDefault(t *testing.T) {
	l := newTestLearner(BestMatch)
	driveWarmupAndLearning(l, 1000, 5000)
	for i := 0; i < 300; i++ {
		l.Predict(sig(40000))
	}
	if l.Degrades != 0 || l.WantDetailed() {
		t.Errorf("disabled watchdog degraded: degrades=%d phase=%s", l.Degrades, l.Phase())
	}
	if r := l.OutlierRate(); r != 0 {
		t.Errorf("disabled watchdog reports outlier rate %v", r)
	}
}

// TestWatchdogRequiresFullWindow: the outlier fraction is only meaningful
// over a complete window, so a short prediction burst — even 100% outliers —
// must not trip the degrade transition.
func TestWatchdogRequiresFullWindow(t *testing.T) {
	l := newWatchdogLearner(8, 0.5)
	driveWarmupAndLearning(l, 1000, 5000)
	for i := 0; i < 7; i++ {
		l.Predict(sig(40000))
	}
	if l.Degrades != 0 {
		t.Fatalf("watchdog tripped on a %d-prediction burst (window 8)", 7)
	}
}

// TestWatchdogDegradeAndRearm drives the full guardrail cycle: predicting →
// (outlier burst) → degraded → (re-learning converges) → predicting, with the
// rebuilt table predicting the service's new behavior.
func TestWatchdogDegradeAndRearm(t *testing.T) {
	l := newWatchdogLearner(8, 0.5)
	driveWarmupAndLearning(l, 1000, 5000)

	// The service's behavior shifts: every prediction is an outlier. Once the
	// window fills, the watchdog overrides Best-Match and degrades.
	for i := 0; i < 8; i++ {
		if l.WantDetailed() {
			t.Fatalf("degraded after only %d outliers", i)
		}
		l.Predict(sig(40000))
	}
	if l.Degrades != 1 || l.Phase() != "degraded" {
		t.Fatalf("watchdog did not degrade: degrades=%d phase=%s", l.Degrades, l.Phase())
	}
	if !l.WantDetailed() {
		t.Fatal("degraded learner must run detailed")
	}
	if l.Relearns != 0 {
		t.Errorf("Best-Match re-learned (%d) — the watchdog should be the only trigger", l.Relearns)
	}

	// Detailed observations of the new behavior rebuild the table; once the
	// hold window's observations match it, prediction re-arms.
	for i := 0; i < 2*l.params.Window() && l.WantDetailed(); i++ {
		l.Observe(sig(40000), feedMeas(40000, 99000))
	}
	if l.Phase() != "predicting" {
		t.Fatalf("watchdog never re-armed: phase=%s", l.Phase())
	}
	if pred := l.Predict(sig(40100)); pred.Cycles != 99000 {
		t.Errorf("re-armed prediction = %d, want the new behavior's 99000", pred.Cycles)
	}
	if l.OutlierRate() != 0 {
		t.Errorf("outlier window not reset after re-arm: %v", l.OutlierRate())
	}
}

// TestWatchdogHoldsWhileDrifting: a service whose behavior keeps changing
// never satisfies the re-arm test and (accurately) stays detailed.
func TestWatchdogHoldsWhileDrifting(t *testing.T) {
	l := newWatchdogLearner(8, 0.5)
	driveWarmupAndLearning(l, 1000, 5000)
	for i := 0; i < 8; i++ {
		l.Predict(sig(40000))
	}
	if l.Phase() != "degraded" {
		t.Fatalf("setup failed: phase=%s", l.Phase())
	}
	// Every observation lands somewhere new: nothing matches the table.
	v := uint64(50000)
	for i := 0; i < 3*l.params.Window(); i++ {
		l.Observe(sig(v), feedMeas(v, 10*v))
		v += v / 2
	}
	if l.Phase() != "degraded" {
		t.Errorf("drifting service re-armed prediction: phase=%s", l.Phase())
	}
}

// TestAcceleratorHealth surfaces the guardrail state machine through the
// public Health summary.
func TestAcceleratorHealth(t *testing.T) {
	p := DefaultParams()
	p.Strategy = BestMatch
	p.LearnWindow = 4
	p.WarmupSkip = 1
	p.WatchdogThreshold = 0.5
	p.WatchdogWindow = 4
	a := NewAccelerator(p)
	svc := isa.Sys(isa.SysRead)
	for i := 0; i < 5; i++ {
		a.OnServiceEnd(svc, sig(1000), feedMeas(1000, 5000))
	}
	h := a.Health()
	if !h.Watchdog || h.Services != 1 || h.Predicting != 1 || !h.Healthy() {
		t.Fatalf("post-learning health = %+v", h)
	}
	for i := 0; i < 2; i++ {
		a.OnServiceEnd(svc, sig(40000), nil)
	}
	// Mid-burst: outliers accumulating but the window has not filled.
	h = a.Health()
	if h.WorstOutlierRate == 0 || h.WorstService != svc {
		t.Errorf("mid-burst worst = %.2f/%v, want >0/%v", h.WorstOutlierRate, h.WorstService, svc)
	}
	for i := 0; i < 2; i++ {
		a.OnServiceEnd(svc, sig(40000), nil)
	}
	h = a.Health()
	if h.Healthy() || h.Degraded != 1 || h.Degrades != 1 {
		t.Fatalf("post-burst health = %+v", h)
	}
	rep := a.Report()
	if len(rep) != 1 || rep[0].Phase != "degraded" || rep[0].Degrades != 1 {
		t.Errorf("report row = %+v", rep)
	}
}

// TestMixSignatureToleratesJitter: small mix variations must still match.
func TestMixSignatureToleratesJitter(t *testing.T) {
	var plt PLT
	base := Signature{Insts: 2000, Loads: 800, Stores: 100, Branches: 200}
	for i := 0; i < 10; i++ {
		plt.Learn(base, feedMeas(2000, 3000), 0.05, 0, true)
	}
	near := Signature{Insts: 2010, Loads: 810, Stores: 101, Branches: 198}
	if plt.Match(near, 0.05, 0, true) == nil {
		t.Error("near-identical mix rejected")
	}
}

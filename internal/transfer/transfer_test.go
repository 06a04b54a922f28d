package transfer

import (
	"math"
	"testing"

	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
)

func defaultCoords() Coords { return FromConfig(machine.DefaultConfig()) }

// TestDistanceZeroDelta pins the identity: a config is at distance 0 from
// itself (including zeroed fields on both sides) and always eligible.
func TestDistanceZeroDelta(t *testing.T) {
	c := defaultCoords()
	if d := Distance(c, c); d != 0 {
		t.Errorf("self-distance %g, want 0", d)
	}
	var empty Coords
	if d := Distance(empty, empty); d != 0 {
		t.Errorf("empty self-distance %g, want 0", d)
	}
	if !Eligible(0) {
		t.Error("distance 0 must be eligible")
	}
}

// TestDistanceSingleParamSweep pins the L2-sweep geometry the sweep
// experiment uses: each capacity doubling costs one octave, so 512KB->1MB
// and 512KB->2MB are eligible while 512KB->8MB (4 octaves) is past the
// cutoff — the deliberately-ineligible donor of the acceptance criteria.
func TestDistanceSingleParamSweep(t *testing.T) {
	base := defaultCoords()
	base.L2Size = 512 << 10
	for _, tc := range []struct {
		l2   int
		want float64
		ok   bool
	}{
		{1 << 20, 1, true},
		{2 << 20, 2, true},
		{8 << 20, 4, false},
	} {
		r := base
		r.L2Size = tc.l2
		d := Distance(base, r)
		if math.Abs(d-tc.want) > 1e-12 {
			t.Errorf("512KB->%d: distance %g, want %g", tc.l2, d, tc.want)
		}
		if Eligible(d) != tc.ok {
			t.Errorf("512KB->%d: eligible=%v, want %v", tc.l2, Eligible(d), tc.ok)
		}
		if back := Distance(r, base); back != d {
			t.Errorf("distance not symmetric: %g vs %g", d, back)
		}
	}
}

// TestDistanceIneligiblePairs pins the incomparable cases: a parameter
// present on one side and absent (zero) on the other makes the pair
// structurally different — distance +Inf, never eligible at any cutoff.
func TestDistanceIneligiblePairs(t *testing.T) {
	a := defaultCoords()
	b := a
	b.L2Size = 0
	if d := Distance(a, b); !math.IsInf(d, 1) {
		t.Errorf("cache vs cacheless distance %g, want +Inf", d)
	}
	if Eligible(Distance(a, b)) {
		t.Error("one-sided zero parameter must be ineligible")
	}
	c := a
	c.IssueWidth = 0
	if d := Distance(a, c); !math.IsInf(d, 1) {
		t.Errorf("width vs no-width distance %g, want +Inf", d)
	}
	// Multi-parameter accumulation: an assoc step (half weight) on top of a
	// capacity octave.
	e := a
	e.L2Size, e.L2Assoc = a.L2Size*2, a.L2Assoc*2
	if d := Distance(a, e); math.Abs(d-1.5) > 1e-12 {
		t.Errorf("capacity+assoc step distance %g, want 1.5", d)
	}
}

// TestParseSpecRoundTrip pins the canonical directive forms and the
// rejection of everything else (including the empty string — "no transfer"
// must never round-trip into a run key as a directive).
func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{"store", "l2=524288", "l2=1048576"} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if spec.String() != s {
			t.Errorf("ParseSpec(%q).String() = %q", s, spec.String())
		}
	}
	for _, s := range []string{"", "l2=", "l2=0", "l2=-4", "l2=abc", "width=2", "Store"} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
}

// familyArgs are the non-machine FamilyHash inputs the tests vary.
func familyHashOf(mcfg machine.Config) uint64 {
	return FamilyHash("ab-seq", mcfg, core.DefaultParams(), 1.0, "")
}

// TestFamilyHashSweptInvariance is the addressing contract: moving along any
// sweep axis (cache geometry, core width, memory timing, seed) keeps the
// family, while changing anything else — workload, scale, fault plan,
// learner parameters, block size — leaves it.
func TestFamilyHashSweptInvariance(t *testing.T) {
	base := machine.DefaultConfig()
	want := familyHashOf(base)

	swept := []func(*machine.Config){
		func(c *machine.Config) { c.Mem = c.Mem.WithL2Size(8 << 20) },
		func(c *machine.Config) { c.Mem.L2.Assoc = 16 },
		func(c *machine.Config) { c.Mem.L1I.Size = 64 << 10 },
		func(c *machine.Config) { c.Mem.L1D.Assoc = 8 },
		func(c *machine.Config) { c.CPU.FetchWidth = 8 },
		func(c *machine.Config) { c.CPU.IssueWidth = 2 },
		func(c *machine.Config) { c.CPU.RetireWidth = 6 },
		func(c *machine.Config) { c.CPU.ROBSize = 256 },
		func(c *machine.Config) { c.Mem.MemLatency = 150 },
		func(c *machine.Config) { c.Mem.BusOccupancy = 20 },
		func(c *machine.Config) { c.Seed = 99 },
	}
	for i, mut := range swept {
		cfg := base
		mut(&cfg)
		if got := familyHashOf(cfg); got != want {
			t.Errorf("swept mutation %d changed FamilyHash: %016x != %016x", i, got, want)
		}
	}

	nonSwept := []func(*machine.Config){
		func(c *machine.Config) { c.Mem.L2.BlockSize = 128 },
		func(c *machine.Config) { c.Mem.L2.HitLatency = 12 },
		func(c *machine.Config) { c.CPU.MispredictCycles = 20 },
		func(c *machine.Config) { c.CPU.ModeSwitchCycles = 80 },
		func(c *machine.Config) { c.WithCaches = false },
		func(c *machine.Config) { c.NoPollution = true },
		func(c *machine.Config) { c.Mem = c.Mem.WithTLB() },
	}
	for i, mut := range nonSwept {
		cfg := base
		mut(&cfg)
		if got := familyHashOf(cfg); got == want {
			t.Errorf("non-swept mutation %d did not change FamilyHash", i)
		}
	}

	// The non-machine inputs all separate families too.
	if FamilyHash("ab-rand", base, core.DefaultParams(), 1.0, "") == want {
		t.Error("benchmark change did not change FamilyHash")
	}
	if FamilyHash("ab-seq", base, core.DefaultParams(), 0.5, "") == want {
		t.Error("scale change did not change FamilyHash")
	}
	if FamilyHash("ab-seq", base, core.DefaultParams(), 1.0, "storm") == want {
		t.Error("fault-plan change did not change FamilyHash")
	}
	p := core.DefaultParams()
	p.PMin = 0.1
	if FamilyHash("ab-seq", base, p, 1.0, "") == want {
		t.Error("learner-parameter change did not change FamilyHash")
	}
}

// FuzzFamilyHash drives the same contract with fuzzed sweep coordinates:
// whatever (positive) values the swept parameters take, they never move the
// family, while a non-swept perturbation always does.
func FuzzFamilyHash(f *testing.F) {
	f.Add(int64(1<<20), 8, 4, 126, 300, int64(1))
	f.Add(int64(512<<10), 2, 1, 16, 10, int64(7))
	f.Add(int64(0), 0, 0, 0, 0, int64(0))
	f.Fuzz(func(t *testing.T, l2Size int64, l2Assoc, issue, rob, memLat int, seed int64) {
		base := machine.DefaultConfig()
		want := familyHashOf(base)

		cfg := base
		cfg.Mem.L2.Size = int(l2Size)
		cfg.Mem.L2.Assoc = int(l2Assoc)
		cfg.CPU.IssueWidth = int(issue)
		cfg.CPU.ROBSize = int(rob)
		cfg.Mem.MemLatency = int(memLat)
		cfg.Seed = seed
		if got := familyHashOf(cfg); got != want {
			t.Fatalf("swept coords (%d,%d,%d,%d,%d,seed %d) changed FamilyHash",
				l2Size, l2Assoc, issue, rob, memLat, seed)
		}

		// A non-swept field perturbed by a fuzzed amount must re-address.
		cfg2 := base
		cfg2.CPU.MispredictCycles = base.CPU.MispredictCycles + 1 + int(uint64(l2Size)%1000)
		if familyHashOf(cfg2) == want {
			t.Fatalf("non-swept perturbation %d did not change FamilyHash", cfg2.CPU.MispredictCycles)
		}
	})
}

// TestFitAnalyticL2Sweep pins the seeded model for the sweep the golden
// experiment runs: only the L2 capacity differs, so the L1 and access
// factors are neutral and the L2 miss factor follows the sqrt capacity law.
func TestFitAnalyticL2Sweep(t *testing.T) {
	donor := defaultCoords()
	donor.L2Size = 512 << 10
	recip := defaultCoords() // 1MB
	m := FitAnalytic(donor, recip)
	if m.L1IM != 1 || m.L1DM != 1 || m.L2A != 1 || m.Width != 1 {
		t.Errorf("pure L2 sweep must leave L1/width factors neutral: %+v", m)
	}
	if want := math.Sqrt(0.5); math.Abs(m.L2M-want) > 1e-12 {
		t.Errorf("L2M factor %g, want sqrt(1/2) = %g", m.L2M, want)
	}
	if m.L2WB != m.L2M {
		t.Errorf("writeback factor %g must follow L2M %g", m.L2WB, m.L2M)
	}
	if m.MemPenDonor != 340 || m.MemPenRecip != 340 {
		t.Errorf("memory penalties %g/%g, want 340/340", m.MemPenDonor, m.MemPenRecip)
	}
	// Identity fit: same coords, all factors 1 — transferring to an
	// identical config is a no-op on the statistics.
	id := FitAnalytic(recip, recip)
	if id.L2M != 1 || id.L1IM != 1 || id.Width != 1 || id.L2A != 1 {
		t.Errorf("identity fit not neutral: %+v", id)
	}
}

// donorState builds a plausible exported donor: one learner with two learned
// clusters of 50 members each, plus one learner that never got past warmup.
func donorState(t *testing.T) *core.AccelState {
	t.Helper()
	mk := func(mean float64, n int64) stats.Moments {
		var w stats.Moments
		for i := int64(0); i < n; i++ {
			w.Add(mean * (1 + 0.01*float64(i%5)))
		}
		return w
	}
	cluster := func(centroid, cyc, l2m float64) core.ClusterState {
		const n = 50
		return core.ClusterState{
			Centroid:    centroid,
			MixCentroid: [3]float64{centroid * 0.3, centroid * 0.2, centroid * 0.1},
			N:           n,
			Perf: core.Perf{
				Cycles: mk(cyc, n), L2M: mk(l2m, n),
				L1IM: mk(20, n), L1DM: mk(35, n),
				L1IA: mk(centroid, n), L1DA: mk(centroid*0.5, n),
				L2A: mk(55, n), L2WB: mk(8, n), IPC: mk(1.2, n),
			},
		}
	}
	p := core.DefaultParams()
	learned := core.LearnerState{
		Service: isa.Sys(4), Phase: 2, Seen: 120,
		Ring: make([]int16, p.MovingWindow), NextOutID: 1,
		Clusters: []core.ClusterState{cluster(1000, 2400, 3), cluster(5000, 14000, 25)},
	}
	for i := range learned.Ring {
		learned.Ring[i] = -1
	}
	warming := core.LearnerState{
		Service: isa.Sys(5), Phase: 0, Seen: 2, WarmLeft: 3,
		Ring: make([]int16, p.MovingWindow), NextOutID: 1,
	}
	return &core.AccelState{Params: p, Learners: []core.LearnerState{learned, warming}}
}

// TestRescaleProducesValidPriors is the end-to-end contract of the import
// path: the rescaled state validates under the recipient's parameters, every
// learner restarts in the (shortened) learning phase with the watchdog
// armed, clusterless learners are dropped, signatures pass through unchanged
// and sample counts are capped to prior weight.
func TestRescaleProducesValidPriors(t *testing.T) {
	st := donorState(t)
	donor, recip := defaultCoords(), defaultCoords()
	donor.L2Size = 512 << 10
	model := FitAnalytic(donor, recip)

	target := core.DefaultParams()
	target.WatchdogThreshold = core.DefaultWatchdogThreshold
	target.WatchdogWindow = core.DefaultWatchdogWindow

	out, err := Rescale(st, model, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("rescaled state does not validate: %v", err)
	}
	if len(out.Learners) != 1 {
		t.Fatalf("%d learners survived, want 1 (clusterless learner dropped)", len(out.Learners))
	}
	l := out.Learners[0]
	if l.Phase != 1 || l.LearnLeft != RefitWindow || l.WarmLeft != 0 || l.Seen != 0 {
		t.Errorf("learner not reset to refit-learning: phase %d learnLeft %d warmLeft %d seen %d",
			l.Phase, l.LearnLeft, l.WarmLeft, l.Seen)
	}
	if len(l.WDRing) != target.WatchdogWindow {
		t.Errorf("watchdog ring length %d, want %d — a transferred table must keep its watchdog armed",
			len(l.WDRing), target.WatchdogWindow)
	}
	if len(l.Ring) != target.MovingWindow {
		t.Errorf("ring length %d, want %d", len(l.Ring), target.MovingWindow)
	}
	if l.Learned != 0 || l.Predicted != 0 || l.OutlierN != 0 {
		t.Error("evaluation counters must reset on import")
	}

	orig := st.Learners[0].Clusters
	for i, c := range l.Clusters {
		if c.Centroid != orig[i].Centroid || c.MixCentroid != orig[i].MixCentroid {
			t.Errorf("cluster %d: signature changed — centroids are workload properties", i)
		}
		if c.N != PriorWeight {
			t.Errorf("cluster %d: N %d, want capped at %d", i, c.N, PriorWeight)
		}
		if c.Perf.L2M.N != PriorWeight || c.Perf.Cycles.N != PriorWeight {
			t.Errorf("cluster %d: moment counts not capped", i)
		}
		// Fewer misses on the bigger L2, same access counts.
		wantL2M := (orig[i].Perf.L2M.Mean) * model.L2M
		if math.Abs(c.Perf.L2M.Mean-wantL2M) > 1e-9 {
			t.Errorf("cluster %d: L2M mean %g, want %g", i, c.Perf.L2M.Mean, wantL2M)
		}
		if c.Perf.L1IA.Mean != orig[i].Perf.L1IA.Mean {
			t.Errorf("cluster %d: access counts must not rescale", i)
		}
		// Cycles shrink (fewer misses, same penalty) but stay positive, and
		// IPC moves inversely.
		if c.Perf.Cycles.Mean <= 0 || c.Perf.Cycles.Mean >= orig[i].Perf.Cycles.Mean {
			t.Errorf("cluster %d: cycles %g, want in (0, %g)", i, c.Perf.Cycles.Mean, orig[i].Perf.Cycles.Mean)
		}
		if c.Perf.IPC.Mean <= orig[i].Perf.IPC.Mean {
			t.Errorf("cluster %d: IPC %g did not rise with falling cycles", i, c.Perf.IPC.Mean)
		}
	}

	// Without a watchdog in the target params, no ring is allocated and the
	// state still validates.
	plain, err := Rescale(st, model, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Learners[0].WDRing) != 0 {
		t.Error("watchdog ring allocated though target params do not arm it")
	}
	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRescaleNoClusters pins the explicit failure: a donor with nothing
// learned is an error the caller counts as a rejection, not a silent no-op.
func TestRescaleNoClusters(t *testing.T) {
	p := core.DefaultParams()
	bare := core.LearnerState{Service: isa.Sys(9), Ring: make([]int16, p.MovingWindow), NextOutID: 1}
	st := &core.AccelState{Params: p, Learners: []core.LearnerState{bare}}
	if _, err := Rescale(st, FitAnalytic(defaultCoords(), defaultCoords()), p); err == nil {
		t.Fatal("Rescale of clusterless donor succeeded, want ErrNoClusters")
	}
}

// TestCapMomentsKeepsVariance pins the prior-weight truncation: the capped
// sample keeps the mean and the unbiased variance of the original.
func TestCapMomentsKeepsVariance(t *testing.T) {
	var m stats.Moments
	for i := 0; i < 100; i++ {
		m.Add(float64(i % 7))
	}
	c := capMoments(m)
	if c.N != PriorWeight {
		t.Fatalf("capped N %d, want %d", c.N, PriorWeight)
	}
	if math.Abs(c.Mean-m.Mean) > 1e-12 {
		t.Errorf("cap changed mean: %g vs %g", c.Mean, m.Mean)
	}
	if math.Abs(c.Var()-m.Var()) > 1e-9 {
		t.Errorf("cap changed variance: %g vs %g", c.Var(), m.Var())
	}
	// Already-small samples pass through untouched.
	small := stats.Moments{N: 3, Mean: 5, M2: 2}
	if capMoments(small) != small {
		t.Error("cap modified a sample already below prior weight")
	}
}

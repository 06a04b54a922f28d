package workload

import (
	"runtime"
	"testing"
	"time"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/memsys"
	"fssim/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("registry has %d benchmarks, want 10", len(names))
	}
	// The paper's presentation order: OS-intensive first; the unmodified-ab
	// baseline (ab-single) trails.
	want := []string{"ab-rand", "ab-seq", "du", "find-od", "iperf",
		"gzip", "vpr", "art", "swim", "ab-single"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("order[%d] = %s, want %s", i, names[i], n)
		}
	}
	for _, n := range OSIntensiveNames() {
		b, err := Lookup(n)
		if err != nil || !b.OSIntensive {
			t.Errorf("lookup(%s): %v, OSIntensive=%v", n, err, b.OSIntensive)
		}
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Error("lookup of unknown benchmark succeeded")
	}
}

// TestDeterminism: identical configuration and seed must reproduce identical
// cycle counts — the property that makes experiment comparisons meaningful.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"ab-rand", "du", "gzip"} {
		opts := DefaultOptions()
		opts.Scale = 0.25
		a, err := Run(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Insts != b.Stats.Insts {
			t.Errorf("%s not deterministic: %d/%d vs %d/%d cycles/insts",
				name, a.Stats.Cycles, a.Stats.Insts, b.Stats.Cycles, b.Stats.Insts)
		}
	}
}

// TestAblationInjection verifies both prediction side-effect models earn
// their keep on a CPU-bound OS-intensive workload (DESIGN.md §7): disabling
// either cache-pollution or bus-occupancy injection must not improve
// accuracy over having both enabled.
func TestAblationInjection(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 1.0 // full scale: effect sizes dominate sampling noise
	full, err := Run("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	errFor := func(noPoll, noBus bool) float64 {
		o := DefaultOptions()
		o.Scale = 1.0
		o.Machine.Mode = machine.Accelerated
		o.Machine.NoPollution = noPoll
		o.Machine.NoBusInjection = noBus
		o.Sink = core.NewAccelerator(core.DefaultParams())
		res, err := Run("ab-rand", o)
		if err != nil {
			t.Fatal(err)
		}
		return relErr(float64(res.Stats.Cycles), float64(full.Stats.Cycles))
	}
	both := errFor(false, false)
	noBus := errFor(false, true)
	t.Logf("both-on %.1f%%, no-bus %.1f%%", 100*both, 100*noBus)
	if both > 0.06 {
		t.Errorf("error with both injections on = %.1f%%, want small", 100*both)
	}
	if noBus < both {
		t.Errorf("disabling bus injection improved accuracy (%.1f%% < %.1f%%)",
			100*noBus, 100*both)
	}
}

// TestStrategyCoverageOrdering checks the paper's Fig 11 monotonicity on the
// re-learning stress benchmark: Eager's coverage <= Statistical's <=
// Best-Match's.
func TestStrategyCoverageOrdering(t *testing.T) {
	cov := map[core.Strategy]float64{}
	for _, strat := range core.Strategies() {
		p := core.DefaultParams()
		p.Strategy = strat
		acc := core.NewAccelerator(p)
		opts := DefaultOptions()
		opts.Scale = 0.5
		opts.Machine.Mode = machine.Accelerated
		opts.Sink = acc
		if _, err := Run("ab-seq", opts); err != nil {
			t.Fatal(err)
		}
		cov[strat] = acc.Summary().Coverage()
		t.Logf("%-12s coverage %.1f%%", strat, 100*cov[strat])
	}
	if cov[core.Eager] > cov[core.BestMatch] {
		t.Errorf("Eager coverage (%.2f) above Best-Match (%.2f)",
			cov[core.Eager], cov[core.BestMatch])
	}
	if cov[core.Statistical] > cov[core.BestMatch] {
		t.Errorf("Statistical coverage (%.2f) above Best-Match (%.2f)",
			cov[core.Statistical], cov[core.BestMatch])
	}
}

// TestL2SizeChangesOutcome: the full-system simulation must be sensitive to
// L2 capacity on the cache-bound web workload (the Fig 2 result that
// motivates full-system simulation).
func TestL2SizeChangesOutcome(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.5
	small := opts
	small.Machine.Mem = small.Machine.Mem.WithL2Size(512 << 10)
	s, err := Run("ab-rand", small)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Run("ab-rand", opts) // 1MB default
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s.Stats.Cycles) / float64(l.Stats.Cycles)
	t.Logf("512KB/1MB cycle ratio %.2f", ratio)
	if ratio < 1.1 {
		t.Errorf("L2 halving changed cycles by only %.2fx", ratio)
	}
}

// TestWarmupArming checks that a deferring sink is armed at the workload's
// warm point and that measured stats exclude the warm-up.
func TestWarmupArming(t *testing.T) {
	acc := core.NewAccelerator(core.DefaultParams())
	opts := DefaultOptions()
	opts.Scale = 0.25
	opts.Machine.Mode = machine.Accelerated
	opts.Sink = acc
	res, err := Run("iperf", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Machine.Warmed() {
		t.Fatal("iperf never warmed")
	}
	if acc.Summary().Learned == 0 {
		t.Fatal("accelerator never armed after warm-up")
	}
	if res.Stats.Coverage() == 0 {
		t.Fatal("no coverage in the measured period")
	}
}

// tracedDu runs a traced du and returns only its recorder, the run's final
// cycle and a channel closed once the machine's memory hierarchy is
// finalized. The machine is unreachable from the caller. The finalizer sits
// on the hierarchy because the machine and its kernel reference each other,
// and a finalizer on one object of a cycle never runs.
func tracedDu(t *testing.T) (*trace.Recorder, uint64, chan struct{}) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Trace = trace.NewRecorder(trace.DefaultConfig())
	res, err := Run("du", opts)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(res.Machine.Mem(), func(*memsys.Hierarchy) { close(freed) })
	return res.Trace, res.Machine.Now(), freed
}

// TestTracedRunReleasesMachine checks that a finished run's recorder does not
// keep its machine alive (a memoized traced run keeps its recorder), and that
// the recorder's clock still reads the run's final cycle.
func TestTracedRunReleasesMachine(t *testing.T) {
	rec, end, freed := tracedDu(t)
	if end == 0 {
		t.Fatal("traced run ended at cycle 0")
	}
	released := false
	for i := 0; i < 20 && !released; i++ {
		runtime.GC()
		select {
		case <-freed:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !released {
		t.Error("the recorder of a finished traced run keeps its machine alive")
	}
	if got := rec.Now(); got != end {
		t.Errorf("recorder clock after the run = %d, want the final cycle %d", got, end)
	}
}

package experiments

import (
	"testing"

	"fssim/internal/machine"
)

// withPoisonedPools runs fn with every pooled record in the simulator —
// vacated event-heap slots, recycled delivery and sleep-queue slabs, the
// per-machine measurement/prediction scratch — scrubbed with loud garbage at
// release time. If any consumer reads a recycled record before its producer
// fully rewrites it, the poison leaks into simulated state and the
// byte-identity assertions below fail. The global is written before any
// simulation goroutine starts and restored after they have all joined, so
// the toggle is race-free.
func withPoisonedPools(t *testing.T, fn func()) {
	t.Helper()
	old := machine.PoisonPools
	machine.PoisonPools = true
	defer func() { machine.PoisonPools = old }()
	fn()
}

// TestPoisonedPoolsDeterminism re-runs the parallelism byte-identity
// contract with dirty pools: the hot-path experiments (the figures whose
// goldens the acceptance gate compares) must render identically clean vs
// poisoned, serial vs eight-wide. Clean-vs-poisoned is the sharper check —
// it proves pooling is invisible to simulation output, not merely
// self-consistent.
func TestPoisonedPoolsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the hot-path experiments three times")
	}
	exps := []string{"fig1", "fig2", "fig10", "fig11"}
	render := func(parallelism int) map[string]string {
		t.Helper()
		mc := ReferenceModeCosts
		cfg := Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc}
		results, err := RunAll(exps, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		out := make(map[string]string, len(results))
		for _, res := range results {
			out[res.ID] = res.StableRender()
		}
		return out
	}
	clean := render(1)
	var pj1, pj8 map[string]string
	withPoisonedPools(t, func() {
		pj1 = render(1)
		pj8 = render(8)
	})
	for _, id := range exps {
		if clean[id] == "" {
			t.Fatalf("%s: missing clean rendering", id)
		}
		if clean[id] != pj1[id] {
			t.Errorf("%s: poisoned pools changed the output — a recycled record leaks state:\n--- clean ---\n%s\n--- poisoned ---\n%s",
				id, clean[id], pj1[id])
		}
		if pj1[id] != pj8[id] {
			t.Errorf("%s: poisoned run renders differently at -j 1 vs -j 8", id)
		}
	}
}

// TestPoisonedFaultedDeterminism extends the dirty-pool contract to
// perturbed runs: fault plans lean hardest on the pooled paths (sleep
// wakeups, loss-delayed segment deliveries, jittered scheduling), so a
// poisoned faulted run failing byte-identity would localize a leak there.
func TestPoisonedFaultedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs a faulted experiment three times")
	}
	render := func(parallelism int) string {
		t.Helper()
		mc := ReferenceModeCosts
		cfg := Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc, Faults: mustFaults(t, "mild")}
		res, err := Run("fig11", cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res.StableRender()
	}
	clean := render(1)
	withPoisonedPools(t, func() {
		if p := render(1); p != clean {
			t.Errorf("faulted fig11 output changed under poisoned pools:\n--- clean ---\n%s\n--- poisoned ---\n%s", clean, p)
		}
		if p1, p8 := render(1), render(8); p1 != p8 {
			t.Errorf("poisoned faulted fig11 renders differently at -j 1 vs -j 8")
		}
	})
}

// TestPoisonedSampledDeterminism extends the dirty-pool contract to the
// stratified-sampling fast path: sampled runs lean on the emulated-interval
// machinery (virtual-clock advancement, prediction scratch reuse, phantom
// cache touches), so a recycled-record leak there would surface here as a
// clean-vs-poisoned or j1-vs-j8 divergence of the sampling experiment.
func TestPoisonedSampledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the sampling experiment three times")
	}
	render := func(parallelism int) string {
		t.Helper()
		mc := ReferenceModeCosts
		cfg := Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc}
		res, err := Run("sampling", cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res.StableRender()
	}
	clean := render(1)
	withPoisonedPools(t, func() {
		if p := render(1); p != clean {
			t.Errorf("sampling output changed under poisoned pools:\n--- clean ---\n%s\n--- poisoned ---\n%s", clean, p)
		}
		if p1, p8 := render(1), render(8); p1 != p8 {
			t.Errorf("poisoned sampling experiment renders differently at -j 1 vs -j 8")
		}
	})
}

// TestPoisonedTracedDeterminism closes the loop on the observability layer:
// traces and metrics are recorded from the same hot loop the pools serve, so
// all three exports must be byte-identical with pools poisoned, at any -j.
func TestPoisonedTracedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs traced fig1 three times")
	}
	r, c, j, m := tracedFig1(t, 1)
	withPoisonedPools(t, func() {
		r1, c1, j1, m1 := tracedFig1(t, 1)
		r8, c8, j8, m8 := tracedFig1(t, 8)
		if r1 != r || c1 != c || j1 != j || m1 != m {
			t.Errorf("traced fig1 exports changed under poisoned pools (render %v, chrome %v, jsonl %v, metrics %v)",
				r1 != r, c1 != c, j1 != j, m1 != m)
		}
		if r1 != r8 || c1 != c8 || j1 != j8 || m1 != m8 {
			t.Errorf("poisoned traced fig1 differs at -j 1 vs -j 8 (render %v, chrome %v, jsonl %v, metrics %v)",
				r1 != r8, c1 != c8, j1 != j8, m1 != m8)
		}
	})
}

package experiments

import (
	"testing"

	"fssim/internal/machine"
	"fssim/internal/sample"
)

// TestDeterminismAcrossParallelism is the contract the memo cache and the
// per-run seed derivation must uphold: every experiment renders
// byte-identically whether its simulations run serially or eight-wide.
// Mode costs are pinned so tab1/tab2 don't time the host, and the harness
// note (which carries host timings) is excluded via StableRender.
func TestDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the full suite twice")
	}
	render := func(parallelism int) map[string]string {
		t.Helper()
		mc := ReferenceModeCosts
		cfg := Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc}
		results, err := RunAll(nil, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		out := make(map[string]string, len(results))
		for _, res := range results {
			out[res.ID] = res.StableRender()
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	for _, id := range IDs() {
		if serial[id] == "" {
			t.Errorf("%s: missing serial rendering", id)
			continue
		}
		if serial[id] != parallel[id] {
			t.Errorf("%s renders differently at parallelism 1 vs 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial[id], parallel[id])
		}
	}
}

// TestFaultedDeterminism extends the parallelism contract to perturbed runs:
// a config with a fault plan injected into every simulation must still render
// byte-identically at any -j, because the plan is a pure function of the base
// seed and the spec — never of scheduling order or wall-clock time.
func TestFaultedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs a faulted experiment twice")
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
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Errorf("faulted fig11 renders differently at parallelism 1 vs 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSampledDeterminism extends the parallelism contract to sampled runs: a
// config routing every simulation through the stratified app-interval sampler
// must render byte-identically at any -j, because every sampling decision is
// a pure function of (spec, derived seed, observation history) — never of
// scheduling order. fig1 covers the sampled full-system and app-only paths;
// the sampling experiment itself is covered by the suite-wide test above.
func TestSampledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs a sampled experiment twice")
	}
	render := func(parallelism int) string {
		t.Helper()
		mc := ReferenceModeCosts
		cfg := Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc, Sample: mustSample(t, "default")}
		res, err := Run("fig1", cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res.StableRender()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Errorf("sampled fig1 renders differently at parallelism 1 vs 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSampledSpellingSharesKeys pins spec parsing at the edge: two
// spellings of one sampling policy must parse to identical run keys, so they
// share memo-cache entries, run ids, and byte-identical tables.
func TestSampledSpellingSharesKeys(t *testing.T) {
	a := Config{Sample: mustSample(t, "default")}.normalized()
	b := Config{Sample: mustSample(t, "budget=8,min=2,pilot=64,range=0.05,refresh=64")}.normalized()
	ka := a.benchKey("ab-rand", machine.FullSystem, 0)
	kb := b.benchKey("ab-rand", machine.FullSystem, 0)
	if ka != kb || ka.ID() != kb.ID() {
		t.Errorf("spellings of one policy produced distinct keys:\n%s\n%s", ka, kb)
	}
	if ka.Sample == (sample.Spec{}) {
		t.Error("normalized config lost its sampling spec")
	}
	// The sampled key must share its unsampled twin's derived seed (same
	// trajectory), while still being a distinct cache entry.
	plain := Config{}.normalized().benchKey("ab-rand", machine.FullSystem, 0)
	if ka == plain {
		t.Error("sampled and unsampled keys collide")
	}
	if ka.DeriveSeed() != plain.DeriveSeed() {
		t.Error("sampled run does not replay its unsampled twin's trajectory seed")
	}
}

// TestSchedulerCoalescesDuplicates asserts the memo layer's accounting: a
// suite-wide run must simulate each distinct RunKey exactly once, and every
// repeated request must be served from cache.
func TestSchedulerCoalescesDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs several experiments")
	}
	mc := ReferenceModeCosts
	s := NewScheduler(Config{Scale: 0.1, Seed: 1, Parallelism: 4, ModeCosts: &mc})
	// fig8 and fig9 share their full-system and accelerated baselines; tab2
	// shares fig8's accelerated runs.
	if _, err := s.RunMany([]string{"fig8", "fig9", "tab2"}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits == 0 {
		t.Errorf("no cache hits across overlapping experiments: %+v", st)
	}
	if int64(st.Distinct) != st.Misses {
		t.Errorf("distinct runs (%d) != misses (%d): duplicate simulations executed", st.Distinct, st.Misses)
	}
	// fig8: 5 benchmarks x {full, accel, apponly} = 15 distinct; fig9 and
	// tab2 add nothing new.
	if st.Distinct != 15 {
		t.Errorf("distinct simulations = %d, want 15 (fig9/tab2 fully served by fig8's runs)", st.Distinct)
	}
}

// TestRunSeedValidation covers the harness's config validation: negative
// seeds are rejected, zero seed and non-positive parallelism take defaults.
func TestRunSeedValidation(t *testing.T) {
	if _, err := Run("fig7", Config{Scale: 1, Seed: -3}); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := RunAll([]string{"fig7"}, Config{Scale: 1, Seed: -3}); err == nil {
		t.Error("RunAll accepted negative seed")
	}
	res, err := Run("fig7", Config{}) // zero Scale, Seed, Parallelism
	if err != nil {
		t.Fatalf("zero-value config rejected: %v", err)
	}
	if res.ID != "fig7" || res.Title == "" {
		t.Errorf("Run did not fill ID/Title: %+v", res)
	}
	cfg := Config{Parallelism: -2}.normalized()
	if cfg.Parallelism <= 0 {
		t.Errorf("Parallelism not defaulted: %d", cfg.Parallelism)
	}
	if cfg.Seed != 1 || cfg.Scale != 1.0 {
		t.Errorf("Seed/Scale not defaulted: %+v", cfg)
	}
}

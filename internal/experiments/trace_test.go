package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tracedFig1 runs fig1 with tracing on at the given parallelism and returns
// the stable rendering plus all three exports.
func tracedFig1(t *testing.T, parallelism int) (render, chrome, jsonl, metrics string) {
	t.Helper()
	mc := ReferenceModeCosts
	s := NewScheduler(Config{Scale: 0.1, Seed: 1, Parallelism: parallelism, ModeCosts: &mc, Trace: true})
	res, err := s.Run("fig1")
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	var c, j, m bytes.Buffer
	if err := s.WriteChromeTrace(context.Background(), &c); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSONLTrace(context.Background(), &j); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRunMetrics(context.Background(), &m); err != nil {
		t.Fatal(err)
	}
	return res.StableRender(), c.String(), j.String(), m.String()
}

// TestTracedDeterminism is the observability layer's own j1-vs-j8 contract:
// recorded traces and per-run metrics — not just the result tables — must be
// byte-identical regardless of harness parallelism.
func TestTracedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs fig1 twice with tracing")
	}
	r1, c1, j1, m1 := tracedFig1(t, 1)
	r8, c8, j8, m8 := tracedFig1(t, 8)
	if r1 != r8 {
		t.Errorf("traced fig1 renders differently at -j 1 vs -j 8")
	}
	if c1 != c8 {
		t.Errorf("Chrome trace export differs at -j 1 vs -j 8")
	}
	if j1 != j8 {
		t.Errorf("JSONL trace export differs at -j 1 vs -j 8")
	}
	if m1 != m8 {
		t.Errorf("metrics dump differs at -j 1 vs -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", m1, m8)
	}
	if len(c1) == 0 || !strings.Contains(c1, `"traceEvents"`) {
		t.Errorf("Chrome export looks empty or malformed: %q", firstN(c1, 200))
	}
	if !strings.Contains(m1, "# run ") || !strings.Contains(m1, "interval.cycles_count") {
		t.Errorf("metrics dump missing expected sections:\n%s", firstN(m1, 400))
	}
}

// TestTracingDoesNotPerturbResults pins the zero-influence half of the
// zero-overhead contract: a traced suite's tables are byte-identical to an
// untraced suite's. Combined with the golden tests (which run untraced), this
// proves instrumentation sites never change simulated behavior.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs fig1 twice")
	}
	render := func(traced bool) string {
		t.Helper()
		mc := ReferenceModeCosts
		res, err := Run("fig1", Config{Scale: 0.1, Seed: 1, Parallelism: 4, ModeCosts: &mc, Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		return res.StableRender()
	}
	if off, on := render(false), render(true); off != on {
		t.Errorf("tracing changed the result tables:\n--- untraced ---\n%s\n--- traced ---\n%s", off, on)
	}
}

// TestUntracedSchedulerExportsNothing: with Trace unset, recorders are never
// created and the export surface yields an empty (but valid) document.
func TestUntracedSchedulerExportsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs one simulation")
	}
	mc := ReferenceModeCosts
	s := NewScheduler(Config{Scale: 0.1, Seed: 1, ModeCosts: &mc})
	if _, err := s.Get(s.cfg.benchKey("gzip", 1, 0)); err != nil { // AppOnly gzip: cheapest run
		t.Fatal(err)
	}
	if runs := s.TracedRuns(context.Background()); len(runs) != 0 {
		t.Errorf("untraced scheduler reported traced runs: %v", runs)
	}
	var c, m bytes.Buffer
	if err := s.WriteChromeTrace(context.Background(), &c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "traceEvents") {
		t.Errorf("empty Chrome export invalid: %s", c.String())
	}
	if err := s.WriteRunMetrics(context.Background(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Errorf("untraced metrics dump not empty: %s", m.String())
	}
}

func firstN(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

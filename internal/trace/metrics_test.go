package trace

import (
	"strings"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plt.hits").Add(3)
	reg.Counter("plt.hits").Inc()
	if got := reg.Counter("plt.hits").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	reg.Gauge("runq").Set(7)
	reg.Gauge("runq").Add(-2)
	if got := reg.Gauge("runq").Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := reg.Histogram("cycles")
	h.Observe(10)
	h.Observe(1000)
	if lh := h.Hist(); lh.N() != 2 || lh.Min() != 10 || lh.Max() != 1000 {
		t.Errorf("hist = N %d min %g max %g", lh.N(), lh.Min(), lh.Max())
	}
	// Get-or-create must return the same instrument.
	if reg.Counter("plt.hits") != reg.Counter("plt.hits") {
		t.Error("counter lookup not stable")
	}
}

// TestSnapshotDeterminism asserts snapshots sort by name and render the same
// bytes on repeated calls — the property the harness's metrics dump and the
// j1-vs-j8 comparison rely on.
func TestSnapshotDeterminism(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta").Add(1)
	reg.Gauge("alpha").Set(2)
	reg.Histogram("mid").Observe(4)
	reg.Histogram("mid").Observe(-1) // out-of-range bucket

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[0].Name != "alpha" || snap[1].Name != "mid" || snap[2].Name != "zeta" {
		t.Errorf("snapshot not name-sorted: %v", snap)
	}
	var a, b strings.Builder
	if err := snap.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	text := a.String()
	for _, want := range []string{"alpha 2\n", "zeta 1\n", "mid_count 1\n", "mid_mean 4\n", "mid_oob 1\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

// TestHistogramConcurrent observes into a histogram while another goroutine
// snapshots the registry: under the race detector this checks that every
// instrument is safe for concurrent use, as the serving front-end's request
// handlers and its /metrics reader require.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency")
	const n = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			h.Observe(float64(i))
		}
	}()
	for i := 0; i < n/10; i++ {
		_ = reg.Snapshot()
	}
	<-done
	if snap := reg.Snapshot(); snap[0].Count != n || snap[0].Max != n-1 {
		t.Errorf("snapshot = %+v, want %d observations up to %d", snap[0], n, n-1)
	}
}

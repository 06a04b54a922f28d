package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"fssim/internal/trace"
)

// TracedRun pairs a simulation's cache key with its recorder. Err is nil for
// completed runs; for aborted runs (AbortedTracedRuns) it is the failure that
// ended the run, and Rec holds the partial trace up to the abort point.
type TracedRun struct {
	Key RunKey
	Rec *trace.Recorder
	Err error
}

// TracedRuns returns every traced simulation the scheduler has executed,
// sorted by key string (failed and untraced runs are omitted). It waits for
// in-flight runs to finish until ctx ends, so with an unexpired ctx the
// listing — and everything exported from it — is a pure function of the run
// set, independent of parallelism; runs still executing when ctx expires are
// omitted rather than blocking a drain forever.
func (s *Scheduler) TracedRuns(ctx context.Context) []TracedRun {
	var out []TracedRun
	s.settled(ctx, nil, func(k RunKey, e *runEntry) {
		if e.err == nil && e.out.rec != nil {
			out = append(out, TracedRun{Key: k, Rec: e.out.rec})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// AbortedTracedRuns returns the recorders salvaged from failed or canceled
// traced runs, sorted by key string. These partial traces are what an
// interrupted suite (SIGINT) or a draining server still flushes: the spans
// recorded up to the abort point remain loadable and diagnosable even though
// the run produced no result.
func (s *Scheduler) AbortedTracedRuns() []TracedRun {
	s.mu.Lock()
	out := make([]TracedRun, len(s.aborted))
	copy(out, s.aborted)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// abortedLabel marks aborted runs' sections in the exports so partial traces
// are never mistaken for completed ones.
func abortedLabel(tr TracedRun) string { return tr.Key.String() + " !aborted" }

// WriteChromeTrace exports every traced run as one Chrome trace-event JSON
// document: one process (pid) per simulation, one thread (tid) per OS
// service. Aborted runs' partial traces follow the completed ones, labeled
// "!aborted". The file loads directly in Perfetto or chrome://tracing. Runs
// still executing when ctx ends are omitted instead of blocking the export.
func (s *Scheduler) WriteChromeTrace(ctx context.Context, w io.Writer) error {
	x := trace.NewChromeExporter(w)
	for _, tr := range s.TracedRuns(ctx) {
		if err := x.AddProcess(tr.Key.String(), tr.Rec); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if err := x.AddProcess(abortedLabel(tr), tr.Rec); err != nil {
			return err
		}
	}
	return x.Close()
}

// WriteJSONLTrace exports every traced run's spans and instants as compact
// JSON lines tagged with the run key (aborted runs tagged "!aborted"). Runs
// still executing when ctx ends are omitted.
func (s *Scheduler) WriteJSONLTrace(ctx context.Context, w io.Writer) error {
	for _, tr := range s.TracedRuns(ctx) {
		if err := trace.WriteJSONL(w, tr.Key.String(), tr.Rec); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if err := trace.WriteJSONL(w, abortedLabel(tr), tr.Rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteRunMetrics writes each traced run's metrics registry as a plaintext
// /metrics-style dump, one "# run <key>" section per simulation. The output
// is deterministic: sections sort by key and each snapshot renders
// name-sorted (simulated quantities only — host timings live in
// WriteHarnessMetrics). Runs still executing when ctx ends are omitted.
func (s *Scheduler) WriteRunMetrics(ctx context.Context, w io.Writer) error {
	for _, tr := range s.TracedRuns(ctx) {
		if _, err := fmt.Fprintf(w, "# run %s\n", tr.Key); err != nil {
			return err
		}
		if err := tr.Rec.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	for _, tr := range s.AbortedTracedRuns() {
		if _, err := fmt.Fprintf(w, "# run %s (aborted: %v)\n", tr.Key, tr.Err); err != nil {
			return err
		}
		if err := tr.Rec.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteHarnessMetrics writes the harness registry (see Metrics) under one
// "# harness" header, name-sorted. Its counters are host- and
// parallelism-dependent (like the "harness:" notes StableRender excludes),
// so they are kept out of WriteRunMetrics and the deterministic trace
// comparisons. plt.learned is the learning performed by runs this process
// simulated: a fully warm-started process reports 0.
func (s *Scheduler) WriteHarnessMetrics(w io.Writer) error {
	if _, err := io.WriteString(w, "# harness (host-dependent, excluded from deterministic comparisons)\n"); err != nil {
		return err
	}
	return s.reg.WriteText(w)
}

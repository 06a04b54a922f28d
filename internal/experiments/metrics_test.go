package experiments

import (
	"bufio"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fssim/internal/core"
	"fssim/internal/durable"
	"fssim/internal/machine"
	"fssim/internal/transfer"
)

// harnessLines parses WriteHarnessMetrics' "name value" lines.
func harnessLines(t *testing.T, s *Scheduler) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := s.WriteHarnessMetrics(&b); err != nil {
		t.Fatal(err)
	}
	lines := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines[name] = v
	}
	return lines
}

// TestStatsMatchHarnessMetrics: Stats and the metrics dump read one
// registry. A scheduler driven through a store recovery, a warm replay, an
// "l2=" transfer, a sampled key and a failing key reports every SchedStats
// field as the value of its line in WriteHarnessMetrics.
func TestStatsMatchHarnessMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates accelerated runs")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	donor := cfg.accelKey("ab-rand", core.Statistical, 512<<10)
	if _, err := NewScheduler(cfg).Get(donor); err != nil {
		t.Fatal(err)
	}
	// An orphaned temp file and a torn snapshot for the recovery sweep.
	for name, data := range map[string]string{
		durable.TempPrefix + "orphan":  "partial",
		"ab-rand-00000000000000ff.plt": "torn",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := NewScheduler(cfg)
	recip := cfg.accelKey("ab-rand", core.Statistical, 0)
	recip.Transfer = transfer.Spec{L2: 512 << 10}
	sampled := cfg.benchKey("ab-rand", machine.FullSystem, 0)
	sampled.Sample = mustSample(t, "fast")
	for _, key := range []RunKey{donor, recip, sampled} {
		if _, err := s.Get(key); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if _, err := s.Get(cfg.benchKey("panic-test", machine.FullSystem, 0)); err == nil {
		t.Fatal("panicking run succeeded")
	}

	st := s.Stats()
	lines := harnessLines(t, s)
	for _, f := range []struct {
		name string
		got  int64
		want int64 // -1: any positive value
	}{
		{"sched.distinct", int64(st.Distinct), 3},
		{"sched.hits", st.Hits, 1}, // the recipient's donor resolution
		{"sched.misses", st.Misses, 4},
		{"sched.failures", st.Failures, 1},
		{"sched.sim_wall_ns", int64(st.SimWall), -1},
		{"plt.warm_hits", st.WarmHits, 1},
		{"plt.warm_misses", st.WarmMisses, 1},
		{"plt.warm_invalid", st.WarmInvalid, 0},
		{"plt.warm_saves", st.WarmSaves, 1},
		{"plt.learned", st.PLTLearned, -1},
		{"plt.recovered.orphans", st.WarmRecoveredOrphans, 1},
		{"plt.recovered.quarantined", st.WarmRecoveredQuarantined, 1},
		{"sample.runs", st.SampledRuns, 1},
		{"sample.detailed", st.SampleDetailed, -1},
		{"sample.extrapolated", st.SampleExtrapolated, -1},
		{"transfer.hits", st.TransferHits, 1},
		{"transfer.rejected", st.TransferRejected, 0},
	} {
		line, ok := lines[f.name]
		switch {
		case !ok:
			t.Errorf("%s: no metrics line", f.name)
		case line != f.got:
			t.Errorf("%s: metrics line %d, Stats field %d", f.name, line, f.got)
		case f.want >= 0 && f.got != f.want, f.want < 0 && f.got <= 0:
			t.Errorf("%s = %d, want %d (-1: positive)", f.name, f.got, f.want)
		}
	}
	if got := lines["sched.parallelism"]; got != int64(s.Parallelism()) {
		t.Errorf("sched.parallelism = %d, want %d", got, s.Parallelism())
	}
}

// TestQueuedTransferCountsNothing: a transfer directive is counted once its
// outcome is known. A run whose "l2=" donor is already memoized, canceled
// while queued for a worker, imported nothing and refused nothing, so it
// counts neither a transfer hit nor a rejection.
func TestQueuedTransferCountsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mc := ReferenceModeCosts
	cfg := Config{Scale: 0.1, Seed: 1, Parallelism: 1, ModeCosts: &mc}.WithContext(ctx)
	s := NewScheduler(cfg)
	donor := cfg.accelKey("ab-rand", core.Statistical, 512<<10)
	if _, err := s.Get(donor); err != nil {
		t.Fatal(err)
	}

	hangErr := make(chan error, 1)
	go func() {
		_, err := s.Get(cfg.benchKey("hang-test", machine.FullSystem, 0))
		hangErr <- err
	}()
	for i := 0; len(s.slots) == 0; i++ {
		if i > 1000 {
			t.Fatal("hanging run never acquired the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	recip := cfg.accelKey("ab-rand", core.Statistical, 0)
	recip.Transfer = transfer.Spec{L2: 512 << 10}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Get(recip)
		queuedErr <- err
	}()
	// The recipient resolves its donor (a memo hit) before it queues.
	for i := 0; s.Stats().Hits == 0; i++ {
		if i > 1000 {
			t.Fatal("recipient never resolved its donor")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let the request reach the queue
	cancel()

	var re *RunError
	if err := <-queuedErr; !errors.As(err, &re) || !re.Queued {
		t.Fatalf("recipient = %v, want a *RunError marked Queued", err)
	}
	<-hangErr
	if st := s.Stats(); st.TransferHits != 0 || st.TransferRejected != 0 {
		t.Errorf("queued-cancel run counted transfer hits %d rejected %d, want 0 and 0",
			st.TransferHits, st.TransferRejected)
	}
}

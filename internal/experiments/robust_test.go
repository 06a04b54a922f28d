package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fssim/internal/kernel"
	"fssim/internal/machine"
	"fssim/internal/workload"
)

// The misbehaving benchmarks the robustness tests run. Hidden keeps them out
// of workload.Names(), so the paper-artifact experiments (which enumerate the
// benchmark set) never pick them up even though they share this test binary.
func init() {
	workload.Register(workload.Benchmark{
		Name: "panic-test", Hidden: true,
		Description: "deliberately panics mid-simulation",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("boom", func(p *kernel.Proc) {
			p.U.Mix(500)
			panic("deliberate test panic")
		})
	})
	workload.Register(workload.Benchmark{
		Name: "hang-test", Hidden: true,
		Description: "spins forever; only a timeout ends it",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("spin", func(p *kernel.Proc) {
			for {
				p.U.Mix(10_000)
			}
		})
	})
	workload.Register(workload.Benchmark{
		Name: "ok-test", Hidden: true,
		Description: "small well-behaved control workload",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("ok", func(p *kernel.Proc) {
			p.U.Mix(50_000)
		})
	})
}

func TestHiddenBenchmarksStayOutOfNames(t *testing.T) {
	for _, n := range workload.Names() {
		if strings.HasSuffix(n, "-test") {
			t.Fatalf("hidden benchmark %q leaked into Names()", n)
		}
	}
	if _, err := workload.Lookup("panic-test"); err != nil {
		t.Fatalf("hidden benchmark not runnable: %v", err)
	}
	if _, err := workload.Lookup("nope"); !errors.Is(err, workload.ErrUnknown) {
		t.Errorf("Lookup error does not wrap ErrUnknown: %v", err)
	}
}

// TestPanicIsolation is the crash-proofing contract: a benchmark that panics
// mid-simulation yields a per-run *RunError — it does not take down the
// scheduler, and other runs on the same scheduler complete normally.
func TestPanicIsolation(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 2})
	_, err := s.Get(s.cfg.benchKey("panic-test", machine.FullSystem, 0))
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Queued || re.Timeout {
		t.Errorf("unexpected RunError shape: %+v", re)
	}
	if !strings.Contains(err.Error(), "deliberate test panic") {
		t.Errorf("error lost the panic cause: %v", err)
	}
	// The same scheduler still serves healthy runs.
	res, err := s.Get(s.cfg.benchKey("ok-test", machine.FullSystem, 0))
	if err != nil {
		t.Fatalf("healthy run failed after a panicked one: %v", err)
	}
	if res.Stats.Cycles == 0 {
		t.Error("healthy run produced no cycles")
	}
	if st := s.Stats(); st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
}

// TestEvictOnFailure: a failed run must not poison the memo cache — the next
// Get for the same key re-executes instead of replaying the stored error.
func TestEvictOnFailure(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1})
	key := s.cfg.benchKey("panic-test", machine.FullSystem, 0)
	if _, err := s.Get(key); err == nil {
		t.Fatal("panicking run succeeded")
	}
	if _, err := s.Get(key); err == nil {
		t.Fatal("panicking run succeeded on re-get")
	}
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("failed entry was cached: misses=%d hits=%d", st.Misses, st.Hits)
	}
	if st.Distinct != 0 {
		t.Errorf("failed entries still memoized: distinct=%d", st.Distinct)
	}
}

// TestEverySimulationUsesDeriveSeed: a key has one machine seed. Every
// simulation of it — a scheduler's Get, a re-run after a failure, a serving
// Lookup and RunOnce — builds its machine with key.DeriveSeed().
func TestEverySimulationUsesDeriveSeed(t *testing.T) {
	var mu sync.Mutex
	var seeds []int64
	var fail atomic.Bool
	workload.Register(workload.Benchmark{
		Name: "seed-spy-test", Hidden: true,
	}, func(k *kernel.Kernel, scale float64) {
		mu.Lock()
		seeds = append(seeds, k.Machine().Config().Seed)
		mu.Unlock()
		if fail.Load() {
			panic("deliberate seed-spy failure")
		}
		k.Spawn("spy", func(p *kernel.Proc) { p.U.Mix(5_000) })
	})
	for _, mode := range []machine.SimMode{machine.FullSystem, machine.Accelerated} {
		seeds = nil
		s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1})
		key := s.cfg.benchKey("seed-spy-test", mode, 0)
		fail.Store(true)
		if _, err := s.Get(key); err == nil {
			t.Fatalf("%v: failing run succeeded", mode)
		}
		fail.Store(false)
		if _, err := s.Get(key); err != nil {
			t.Fatalf("%v: re-run after the failure: %v", mode, err)
		}
		if _, _, err := NewScheduler(Config{Scale: 1, Seed: 1}).Lookup(context.Background(), key); err != nil {
			t.Fatalf("%v: Lookup: %v", mode, err)
		}
		if _, err := RunOnce(key, "", Hooks{}); err != nil {
			t.Fatalf("%v: RunOnce: %v", mode, err)
		}
		if len(seeds) != 4 {
			t.Fatalf("%v: %d simulations, want 4 (Get, re-run, Lookup, RunOnce)", mode, len(seeds))
		}
		for i, seed := range seeds {
			if seed != key.DeriveSeed() {
				t.Errorf("%v: simulation %d used seed %d, want DeriveSeed %d", mode, i, seed, key.DeriveSeed())
			}
		}
	}
}

// TestPerRunTimeout: a hanging simulation is aborted at the configured
// deadline and reported as a timeout, not as a generic failure.
func TestPerRunTimeout(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1, Timeout: 50 * time.Millisecond})
	_, err := s.Get(s.cfg.benchKey("hang-test", machine.FullSystem, 0))
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if !re.Timeout {
		t.Errorf("timeout not flagged: %+v", re)
	}
	if !errors.Is(err, machine.ErrCanceled) {
		t.Errorf("cause chain lost machine.ErrCanceled: %v", err)
	}
}

// TestContextCancellation: canceling the suite context aborts in-flight runs
// and fails fast.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{Scale: 1, Seed: 1, Parallelism: 1}.WithContext(ctx)
	s := NewScheduler(cfg)
	done := make(chan error, 1)
	go func() {
		_, err := s.Get(s.cfg.benchKey("hang-test", machine.FullSystem, 0))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not end the run")
	}
}

// TestZeroTimeoutMeansNoDeadline pins the timeout semantics: zero is "no
// per-run deadline" — a run under Timeout 0 completes normally rather than
// being canceled immediately.
func TestZeroTimeoutMeansNoDeadline(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1, Timeout: 0})
	res, err := s.Get(s.cfg.benchKey("ok-test", machine.FullSystem, 0))
	if err != nil {
		t.Fatalf("zero timeout canceled a healthy run: %v", err)
	}
	if res.Stats.Cycles == 0 {
		t.Error("zero-timeout run produced no cycles")
	}
}

// TestMemoizedRunKeepsNoMachine: a memoized run publishes its statistics
// without the machine and kernel that produced them, so the cache does not
// pin every finished run's simulated hardware. RunOnce, which memoizes
// nothing, still hands both to its caller.
func TestMemoizedRunKeepsNoMachine(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1})
	for _, mode := range []machine.SimMode{machine.FullSystem, machine.Accelerated} {
		key := s.cfg.benchKey("ok-test", mode, 0)
		res, err := s.Get(key)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.Cycles == 0 {
			t.Errorf("%v: run produced no cycles", mode)
		}
		if res.Machine != nil || res.Kernel != nil {
			t.Errorf("%v: memoized result keeps machine %v, kernel %v", mode, res.Machine != nil, res.Kernel != nil)
		}
		run, err := RunOnce(key, "", Hooks{})
		if err != nil {
			t.Fatalf("%v: RunOnce: %v", mode, err)
		}
		if run.Result.Machine == nil || run.Result.Kernel == nil {
			t.Errorf("%v: RunOnce dropped its machine or kernel", mode)
		}
	}
}

// TestNegativeTimeoutIsConfigError pins the other half: a negative timeout is
// a configuration mistake surfaced at Run/RunMany time, never a silent
// immediate cancel.
func TestNegativeTimeoutIsConfigError(t *testing.T) {
	cfg := Config{Scale: 1, Seed: 1, Timeout: -time.Second}
	if _, err := Run("fig7", cfg); err == nil || !strings.Contains(err.Error(), "timeout must be non-negative") {
		t.Errorf("Run did not reject negative timeout: %v", err)
	}
	if _, err := NewScheduler(cfg).RunMany([]string{"fig7"}); err == nil || !strings.Contains(err.Error(), "timeout must be non-negative") {
		t.Errorf("RunMany did not reject negative timeout: %v", err)
	}
	if _, err := RunAll([]string{"fig7"}, cfg); err == nil || !strings.Contains(err.Error(), "timeout must be non-negative") {
		t.Errorf("RunAll did not reject negative timeout: %v", err)
	}
}

// TestQueuedCancellation covers the cancellation edge the serving front-end
// leans on: a run whose context is canceled while it is still queued (waiting
// for a worker slot, not yet running) must resolve promptly with a *RunError
// wrapping context.Canceled and marked Queued — unlike the run the same
// cancellation aborts mid-execution — and the cancellation must not evict
// unrelated completed entries from the memo cache.
func TestQueuedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Scale: 1, Seed: 1, Parallelism: 1}.WithContext(ctx)
	s := NewScheduler(cfg)

	// A completed, memoized run that must survive the cancellation.
	okKey := s.cfg.benchKey("ok-test", machine.FullSystem, 0)
	if _, err := s.Get(okKey); err != nil {
		t.Fatalf("setup run failed: %v", err)
	}

	// Occupy the single worker slot with a run that only ends on cancel.
	hangErr := make(chan error, 1)
	go func() {
		_, err := s.Get(s.cfg.benchKey("hang-test", machine.FullSystem, 0))
		hangErr <- err
	}()

	// Wait until the hanging run actually holds the worker slot, so the next
	// request is genuinely queued rather than racing it for the slot.
	for i := 0; len(s.slots) == 0; i++ {
		if i > 1000 {
			t.Fatal("hanging run never acquired the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue a run behind it (distinct L2 so it cannot hit the memo cache).
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Get(s.cfg.benchKey("ok-test", machine.FullSystem, 2<<20))
		queuedErr <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the request reach the queue
	cancel()

	select {
	case err := <-queuedErr:
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("queued cancellation returned %T, want *RunError: %v", err, err)
		}
		if !re.Queued {
			t.Errorf("queued run not marked Queued (it never started): %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued RunError does not wrap context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued run did not resolve promptly on cancellation")
	}
	var re *RunError
	if err := <-hangErr; !errors.As(err, &re) || re.Queued {
		t.Errorf("canceled running run = %v, want a *RunError not marked Queued", err)
	}

	// Only the completed entry remains memoized: the queued and the hanging
	// runs were evicted, the unrelated completed one was not.
	if st := s.Stats(); st.Distinct != 1 {
		t.Errorf("Distinct = %d after cancellation, want 1 (completed entry retained)", st.Distinct)
	}
	s.mu.Lock()
	_, kept := s.runs[okKey]
	s.mu.Unlock()
	if !kept {
		t.Error("cancellation evicted the unrelated completed memo-cache entry")
	}
}

// TestLookupDetachedExecution: a Lookup whose waiter context expires leaves
// the underlying simulation running for later callers — the serving
// front-end's "abandoned request does not kill the shared run" contract.
func TestLookupDetachedExecution(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 2})
	key := s.cfg.benchKey("ok-test", machine.FullSystem, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // waiter gives up immediately
	_, status, err := s.Lookup(ctx, key)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter error = %v, want context.Canceled", err)
	}
	if status != LookupMiss {
		t.Errorf("first Lookup status = %v, want miss", status)
	}

	// The detached run completes; a fresh waiter collects it.
	out, status, err := s.Lookup(context.Background(), key)
	if err != nil {
		t.Fatalf("second Lookup failed: %v", err)
	}
	if status == LookupMiss {
		t.Error("second Lookup re-executed instead of joining/hitting the first run")
	}
	if out.Result.Stats.Cycles == 0 {
		t.Error("detached run produced no cycles")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (single detached execution)", st.Misses)
	}
}

// TestMemoHitUnderEndedContext: a completed memo entry is served even when
// the caller's context has already ended — an ended context stops waiting
// for a run, not reading one that is final.
func TestMemoHitUnderEndedContext(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1})
	key := s.cfg.benchKey("ok-test", machine.FullSystem, 0)
	want, err := s.get(context.Background(), key, nil)
	if err != nil {
		t.Fatalf("memoizing run failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		got, err := s.get(ctx, key, nil)
		if err != nil {
			t.Fatalf("memo hit %d under a canceled context: %v", i, err)
		}
		if got.res.Stats != want.res.Stats {
			t.Fatalf("memo hit %d returned different stats", i)
		}
	}
}

// TestLookupNotifyOnceForCoalescedFailure pins the one-record contract a
// serving front-end reads run ids from: three coalesced Lookup calls on one
// failing key share a single execution, every waiter sees the failure, and
// the read by id reports it — after the failed entry left the memo.
func TestLookupNotifyOnceForCoalescedFailure(t *testing.T) {
	gate := make(chan struct{})
	var builds atomic.Int32
	workload.Register(workload.Benchmark{
		Name: "gate-fail-test", Hidden: true,
	}, func(k *kernel.Kernel, scale float64) {
		builds.Add(1)
		k.Spawn("gatefail", func(p *kernel.Proc) {
			<-gate
			panic("deliberate post-gate failure")
		})
	})
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 2})
	key := s.cfg.benchKey("gate-fail-test", machine.FullSystem, 0)

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := s.Lookup(context.Background(), key)
			errs <- err
		}()
	}
	// All three are attached to the one in-flight run (1 miss + 2 joins)
	// before the gate releases it into its panic.
	for i := 0; ; i++ {
		if st := s.Stats(); st.Misses == 1 && st.Hits == 2 {
			break
		}
		if i > 5000 {
			t.Fatal("lookups never coalesced onto one run")
		}
		time.Sleep(time.Millisecond)
	}
	if _, status, _, _ := s.ByID(key.ID()); status != RunRunning {
		t.Errorf("ByID while gated = %v, want running", status)
	}
	close(gate)
	for i := 0; i < 3; i++ {
		var re *RunError
		if err := <-errs; !errors.As(err, &re) {
			t.Fatalf("coalesced waiter %d got %v, want *RunError", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d executions for three coalesced waiters, want 1", n)
	}
	got, status, _, err := s.ByID(key.ID())
	if status != RunFailed || got != key || err == nil || !strings.Contains(err.Error(), "deliberate post-gate failure") {
		t.Errorf("ByID after the failure = (%v, %v, %v), want failed with the panic", got, status, err)
	}
	if st := s.Stats(); st.Distinct != 0 || st.Failures != 1 {
		t.Errorf("Distinct %d Failures %d, want 0 and 1 (failed entry evicted)", st.Distinct, st.Failures)
	}
	if _, status, _, _ := s.ByID("r0000000000000000"); status != RunUnknown {
		t.Errorf("ByID of an id no Lookup claimed = %v, want unknown", status)
	}
}

// TestAbortedTraceFlush: a traced run that dies (here: per-run timeout) still
// leaves its partial recorder, and the exports label it "!aborted" — the
// drain-path guarantee that interrupted invocations produce usable traces.
func TestAbortedTraceFlush(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 1,
		Timeout: 50 * time.Millisecond, Trace: true})
	if _, err := s.Get(s.cfg.benchKey("hang-test", machine.FullSystem, 0)); err == nil {
		t.Fatal("hanging run succeeded")
	}
	aborted := s.AbortedTracedRuns()
	if len(aborted) != 1 {
		t.Fatalf("AbortedTracedRuns = %d entries, want 1", len(aborted))
	}
	if aborted[0].Rec == nil || aborted[0].Err == nil {
		t.Fatalf("aborted run lost its recorder or error: %+v", aborted[0])
	}
	var chrome, metrics strings.Builder
	if err := s.WriteChromeTrace(context.Background(), &chrome); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRunMetrics(context.Background(), &metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), "!aborted") {
		t.Error("Chrome export does not label the aborted run")
	}
	if !strings.Contains(metrics.String(), "(aborted") {
		t.Error("metrics export does not label the aborted run")
	}
}

// TestAbortedTracesBounded: a long failure storm must not grow the salvaged
// partial-trace list without bound — a long-lived traced server would
// otherwise leak one recorder per failed run. Only the most recent
// maxAbortedTraces survive.
func TestAbortedTracesBounded(t *testing.T) {
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 2, Trace: true})
	for i := 0; i < maxAbortedTraces+8; i++ {
		key := RunKey{Bench: "panic-test", Mode: machine.FullSystem, Scale: 1, Seed: int64(i + 1)}
		if _, err := s.Get(key); err == nil {
			t.Fatalf("panicking run %d succeeded", i)
		}
	}
	aborted := s.AbortedTracedRuns()
	if len(aborted) != maxAbortedTraces {
		t.Fatalf("AbortedTracedRuns = %d entries, want capped at %d", len(aborted), maxAbortedTraces)
	}
	for _, tr := range aborted {
		if tr.Rec == nil || tr.Err == nil {
			t.Fatalf("salvaged trace lost its recorder or error: %+v", tr)
		}
	}
}

// TestRunManyPartialResults: one failing experiment yields a nil slot and a
// joined error while the other experiments' results come back intact.
func TestRunManyPartialResults(t *testing.T) {
	registry["zz-fail"] = runner{
		title: "always fails (test)",
		fn: func(Config) (*Result, error) {
			return nil, errors.New("synthetic experiment failure")
		},
	}
	defer delete(registry, "zz-fail")
	s := NewScheduler(Config{Scale: 1, Seed: 1, Parallelism: 2})
	results, err := s.RunMany([]string{"fig7", "zz-fail"})
	if err == nil {
		t.Fatal("failing experiment not reported")
	}
	if !strings.Contains(err.Error(), "synthetic experiment failure") {
		t.Errorf("joined error lost the cause: %v", err)
	}
	if results[0] == nil || results[0].ID != "fig7" {
		t.Error("healthy experiment result lost")
	}
	if results[1] != nil {
		t.Error("failed experiment produced a result")
	}
}

// TestFaultsGoldenOrdering guards the faults artifact's headline claim using
// the pinned golden (no re-simulation): under the storm plan, every
// re-learning strategy's average absolute cycle error is at most Best-Match's
// (which has no re-learning trigger of its own), and at least one recovers a
// strictly lower error.
func TestFaultsGoldenOrdering(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "faults.golden"))
	if err != nil {
		t.Fatalf("faults golden missing (generate with -update): %v", err)
	}
	avg := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 4 && fields[0] == "average" {
			var v float64
			if _, err := fmt.Sscanf(fields[3], "%f%%", &v); err != nil {
				t.Fatalf("unparseable average row %q: %v", line, err)
			}
			avg[fields[1]] = v
		}
	}
	base, ok := avg["Best-Match"]
	if !ok {
		t.Fatalf("no Best-Match average row in golden: %v", avg)
	}
	better := false
	for _, strat := range []string{"Statistical", "Delayed", "Eager"} {
		v, ok := avg[strat]
		if !ok {
			t.Fatalf("no %s average row in golden: %v", strat, avg)
		}
		if v > base {
			t.Errorf("%s average error %.1f%% exceeds Best-Match's %.1f%%", strat, v, base)
		}
		if v < base {
			better = true
		}
	}
	if !better {
		t.Errorf("no re-learning strategy beat Best-Match under faults: %v", avg)
	}
}

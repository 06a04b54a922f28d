package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/core"
	"fssim/internal/durable"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/trace"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// runOutput is everything a memoized run yields. Full-system runs always
// carry a Profiler (characterization is free to record and lets Figs 3-6
// share the same cached simulations as the fig1/fig8 baselines); Accelerated
// runs carry their Accelerator. Both are immutable once the run completes,
// so concurrent readers need no locking. A memoized entry's res has no
// Machine or Kernel: Scheduler.run drops them before publishing.
type runOutput struct {
	res      workload.Result
	acc      *core.Accelerator
	prof     *core.Profiler
	smp      *sample.Sampler      // non-nil when the key carries a sampling spec
	rec      *trace.Recorder      // non-nil when Config.Trace is set
	transfer *transfer.Provenance // non-nil when the run imported donor priors
}

// outcome is the exported view of this output for serving front-ends.
func (o runOutput) outcome() Outcome {
	oc := Outcome{Result: o.res, Accel: o.acc, Trace: o.rec, Transfer: o.transfer}
	if o.smp != nil {
		rep := o.smp.Report()
		oc.Sample = &rep
	}
	return oc
}

// runEntry is one run's record: the memo slot of its key and, once a Lookup
// claims it, what its run id reads. done is closed when out/err/wall are
// final. creator records which experiment's request created the entry, so a
// runner re-reading a run its own prefetch started is not miscounted as a
// cache hit.
type runEntry struct {
	key     RunKey
	done    chan struct{}
	creator *expStats
	out     runOutput
	err     error
	wall    time.Duration
}

// SchedStats is the scheduler's aggregate view of work performed and saved.
type SchedStats struct {
	Distinct int           // distinct simulations currently memoized
	Hits     int64         // Get calls served from cache (or coalesced in-flight)
	Misses   int64         // Get calls that executed a new simulation
	Failures int64         // runs that failed
	SimWall  time.Duration // summed wall-clock of executed simulations

	// Warm-start counters (all zero unless Config.WarmDir is set).
	WarmHits    int64 // runs replayed from an on-disk PLT snapshot without simulating
	WarmMisses  int64 // eligible runs with no snapshot for their configuration
	WarmInvalid int64 // snapshots rejected (corrupt, stale hash, or mismatched identity)
	WarmSaves   int64 // snapshots written (per-run saves plus FlushWarm sweeps)
	// PLTLearned sums the learned-instance counters of accelerated runs this
	// process actually simulated; replayed runs contribute nothing, so a
	// fully warm process reports ~0.
	PLTLearned int64
	// Startup recovery sweep results (see pltstore.RecoveryReport): orphan
	// temp files deleted and corrupt/torn snapshots quarantined when the
	// warm store was opened.
	WarmRecoveredOrphans     int64
	WarmRecoveredQuarantined int64

	// Stratified-sampling counters (all zero unless sampled keys were run).
	SampledRuns        int64 // runs executed with an application-interval sampler
	SampleDetailed     int64 // app intervals simulated in detail across sampled runs
	SampleExtrapolated int64 // app intervals fast-forwarded across sampled runs

	// Cross-config transfer counters (all zero unless keys carried a
	// transfer directive).
	TransferHits     int64 // runs that imported rescaled donor priors
	TransferRejected int64 // transfer directives that fell back to a cold start
	//   (ineligible or missing donor, failed donor run, or invalid rescale)
}

// RunError describes one simulation's failure: which run, whether it was
// canceled while still queued for a worker (it never started), whether it
// hit the per-run timeout, and the underlying cause (a workload panic
// converted to an error, a machine abort, or a context cancellation).
type RunError struct {
	Key     RunKey
	Queued  bool
	Timeout bool
	Cause   error
}

func (e *RunError) Error() string {
	switch {
	case e.Queued:
		return fmt.Sprintf("run %s canceled while queued: %v", e.Key, e.Cause)
	case e.Timeout:
		return fmt.Sprintf("run %s timed out: %v", e.Key, e.Cause)
	}
	return fmt.Sprintf("run %s failed: %v", e.Key, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// Scheduler memoizes simulation runs keyed by RunKey and executes distinct
// runs on a bounded worker pool. Concurrent requests for the same key are
// coalesced singleflight-style: the first caller simulates, later callers
// block on the same entry. Each key runs once, under its DeriveSeed. A
// Scheduler is safe for concurrent use.
type Scheduler struct {
	cfg   Config
	slots chan struct{} // worker-pool semaphore; cap = parallelism
	warm  *warmStore    // nil unless Config.WarmDir is set

	mu      sync.Mutex
	runs    map[RunKey]*runEntry
	ids     map[string]*runEntry // run id (RunKey.ID) -> the entry a Lookup claimed
	aborted []TracedRun          // recorders salvaged from failed/canceled traced runs

	costsOnce sync.Once
	costs     ModeCosts

	hits     atomic.Int64
	misses   atomic.Int64
	failures atomic.Int64
	simWall  atomic.Int64 // nanoseconds

	warmHits    atomic.Int64
	warmMisses  atomic.Int64
	warmInvalid atomic.Int64
	warmSaves   atomic.Int64
	pltLearned  atomic.Int64
	recOrphans  atomic.Int64
	recQuar     atomic.Int64

	sampledRuns  atomic.Int64
	sampleDet    atomic.Int64
	sampleExtrap atomic.Int64

	transferHits     atomic.Int64
	transferRejected atomic.Int64
}

// NewScheduler builds a scheduler for cfg; cfg is normalized first, so a
// zero Parallelism becomes GOMAXPROCS and a zero Scale the default 1.0.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.normalized()
	s := &Scheduler{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Parallelism),
		runs:  make(map[RunKey]*runEntry),
		ids:   make(map[string]*runEntry),
	}
	if cfg.WarmDir != "" {
		var rep pltstore.RecoveryReport
		s.warm, rep = openWarm(cfg.WarmDir, cfg.warmFS, cfg.Transfer)
		s.recOrphans.Store(int64(rep.Orphans))
		s.recQuar.Store(int64(rep.Quarantined))
	}
	return s
}

// Parallelism returns the worker-pool width.
func (s *Scheduler) Parallelism() int { return cap(s.slots) }

// Stats returns a snapshot of cache and timing counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	return SchedStats{
		Distinct:    n,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Failures:    s.failures.Load(),
		SimWall:     time.Duration(s.simWall.Load()),
		WarmHits:    s.warmHits.Load(),
		WarmMisses:  s.warmMisses.Load(),
		WarmInvalid: s.warmInvalid.Load(),
		WarmSaves:   s.warmSaves.Load(),
		PLTLearned:  s.pltLearned.Load(),

		WarmRecoveredOrphans:     s.recOrphans.Load(),
		WarmRecoveredQuarantined: s.recQuar.Load(),

		SampledRuns:        s.sampledRuns.Load(),
		SampleDetailed:     s.sampleDet.Load(),
		SampleExtrapolated: s.sampleExtrap.Load(),

		TransferHits:     s.transferHits.Load(),
		TransferRejected: s.transferRejected.Load(),
	}
}

// Get runs (or returns the memoized result of) the simulation key describes.
// The result carries statistics only: no Machine or Kernel.
func (s *Scheduler) Get(key RunKey) (workload.Result, error) {
	out, err := s.get(s.cfg.context(), key, nil)
	return out.res, err
}

// Prefetch starts the given runs in the background without waiting for them.
// Experiment runners declare their full run set up front so that independent
// simulations proceed concurrently while the runner consumes results in its
// (serial) presentation order.
func (s *Scheduler) Prefetch(keys ...RunKey) { s.prefetch(nil, keys...) }

// prefetch is Prefetch with per-experiment stat attribution: simulations the
// prefetch starts are credited to st, not miscounted later as cache hits.
func (s *Scheduler) prefetch(st *expStats, keys ...RunKey) {
	ctx := s.cfg.context()
	for _, key := range keys {
		key := key
		go func() { _, _ = s.get(ctx, key, st) }()
	}
}

// get is the memoizing core. st, when non-nil, receives per-experiment
// hit/miss attribution for the requesting runner's notes. Failed runs are
// evicted from the cache as their waiters are released, so one poisoned
// entry does not pin its error for the scheduler's remaining lifetime — a
// later Get runs the key again.
func (s *Scheduler) get(ctx context.Context, key RunKey, st *expStats) (runOutput, error) {
	e, created := s.claim(key, st, "")
	if created {
		s.run(ctx, e, st)
	} else if err := wait(ctx, e); err != nil {
		return runOutput{}, err
	}
	return e.out, e.err
}

// claim returns key's memo entry, creating it (created true) when there is
// none, and counts the request as a miss or a hit — for st too, unless st
// created the entry itself. A non-empty id is indexed to the entry in the
// same critical section, so the id reads the run from the moment it exists.
func (s *Scheduler) claim(key RunKey, st *expStats, id string) (e *runEntry, created bool) {
	s.mu.Lock()
	e, ok := s.runs[key]
	if !ok {
		e = &runEntry{key: key, done: make(chan struct{}), creator: st}
		s.runs[key] = e
	}
	if id != "" {
		s.ids[id] = e
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		if st != nil {
			st.misses.Add(1)
		}
		return e, true
	}
	s.hits.Add(1)
	if st != nil && e.creator != st {
		st.hits.Add(1)
	}
	return e, false
}

// wait blocks until e is final or ctx ends, returning ctx's error then.
func wait(ctx context.Context, e *runEntry) error {
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// expired is a context that has already ended: settled under it visits only
// the entries final at the call.
var expired = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// settled calls visit for each memoized entry whose key want accepts (nil
// accepts all) once the entry is final: first every entry already final,
// then each in-flight one as it finishes, until ctx ends. It returns how
// many in-flight entries ctx's end left unvisited.
func (s *Scheduler) settled(ctx context.Context, want func(RunKey) bool, visit func(RunKey, *runEntry)) (skipped int) {
	s.mu.Lock()
	entries := make(map[RunKey]*runEntry, len(s.runs))
	for k, e := range s.runs {
		if want == nil || want(k) {
			entries[k] = e
		}
	}
	s.mu.Unlock()
	var pending []RunKey
	for k, e := range entries {
		select {
		case <-e.done:
			visit(k, e)
		default:
			pending = append(pending, k)
		}
	}
	for i, k := range pending {
		if ctx.Err() != nil || wait(ctx, entries[k]) != nil {
			return len(pending) - i
		}
		visit(k, entries[k])
	}
	return 0
}

// run executes the simulation behind a freshly created entry: it waits for a
// worker slot (a cancellation while queued resolves the entry with a
// *RunError wrapping the context error, without ever starting the run),
// executes, and publishes the result via finish.
func (s *Scheduler) run(ctx context.Context, e *runEntry, st *expStats) {
	key := e.key
	// Donor resolution happens BEFORE this run occupies a worker slot: the
	// sibling-donor path runs (or joins) the donor simulation through the
	// ordinary memo cache, which itself needs a slot — resolving first both
	// orders every sweep so donors complete before their recipients and
	// keeps -j 1 deadlock-free. A rejected directive is counted and the run
	// proceeds cold: a directive is never silently ignored and a bad donor
	// never imported.
	prior, prov, err := s.warm.transferPrior(key, func(donor RunKey) (runOutput, error) {
		return s.get(ctx, donor, st)
	})
	if err != nil {
		s.transferRejected.Add(1)
	} else if prior != nil {
		s.transferHits.Add(1)
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		e.err = &RunError{Key: key, Queued: true, Cause: ctx.Err()}
		s.finish(e, st)
		return
	}
	start := time.Now()
	e.out, e.err = s.execute(ctx, key, prior, prov)
	e.wall = time.Since(start)
	<-s.slots
	// No memo reader needs the finished machine or kernel, and keeping them
	// would pin every run's simulated hardware for the scheduler's lifetime.
	e.out.res.Machine, e.out.res.Kernel = nil, nil

	s.simWall.Add(int64(e.wall))
	if st != nil {
		st.simWall.Add(int64(e.wall))
	}
	s.finish(e, st)
}

// LookupStatus classifies how a Lookup request was satisfied — the value a
// serving front-end reports in its cache-status response header.
type LookupStatus int

const (
	// LookupMiss: this request started a fresh simulation.
	LookupMiss LookupStatus = iota
	// LookupCoalesced: the request joined an in-flight simulation for the
	// same key (singleflight dedup).
	LookupCoalesced
	// LookupHit: the result was already memoized.
	LookupHit
)

func (st LookupStatus) String() string {
	switch st {
	case LookupHit:
		return "hit"
	case LookupCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Outcome is the exported view of one memoized run, for serving front-ends.
type Outcome struct {
	Result workload.Result
	// Accel is the run's acceleration engine (nil unless Accelerated); its
	// Health feeds circuit-breaking degradation decisions.
	Accel *core.Accelerator
	// Sample is the estimator report of a sampled run (nil unless the key
	// carried a sampling spec): strata, detailed/extrapolated split, and the
	// 95% confidence half-width on the extrapolated cycles.
	Sample *sample.Report
	// Trace is the run's recorder (nil unless Config.Trace).
	Trace *trace.Recorder
	// Transfer is the provenance of the donor priors this run imported (nil
	// for cold runs and for transfer directives that were rejected).
	Transfer *transfer.Provenance
}

// Lookup resolves key through the memo cache on behalf of a long-lived
// serving front-end. Unlike Get, execution is detached from the caller: a
// fresh simulation runs under the scheduler's own lifetime context (bounded
// by the per-run Timeout), while ctx bounds only this caller's wait — a
// waiter that gives up (request deadline, client disconnect) leaves the
// shared simulation running for other coalesced clients to collect, and
// ByID reads it under key.ID() from the moment Lookup claims it. The
// reported status tells the caller whether it started the run, joined an
// in-flight one, or was served from the cache.
func (s *Scheduler) Lookup(ctx context.Context, key RunKey) (Outcome, LookupStatus, error) {
	e, created := s.claim(key, nil, key.ID())
	status := LookupMiss
	if created {
		go s.run(s.cfg.context(), e, nil)
	} else {
		status = LookupCoalesced
		select {
		case <-e.done:
			status = LookupHit
		default:
		}
	}
	if err := wait(ctx, e); err != nil {
		return Outcome{}, status, err
	}
	return e.out.outcome(), status, e.err
}

// RunStatus is what ByID knows of a run id.
type RunStatus int

const (
	// RunUnknown: no Lookup has claimed the id.
	RunUnknown RunStatus = iota
	// RunRunning: the run is queued or executing.
	RunRunning
	// RunDone: the run succeeded; its Outcome is the memoized result.
	RunDone
	// RunFailed: the run's last execution failed; only its error is kept.
	RunFailed
)

// ByID reads the run a Lookup claimed under id (RunKey.ID): its key and
// status, with the Outcome of a done run or the error of a failed one. The
// memo entry is the record, so a done id reads as long as the memo holds
// it. A failed run is evicted from the memo (the next request runs it
// again) but its id keeps the key and error until that happens.
func (s *Scheduler) ByID(id string) (RunKey, RunStatus, Outcome, error) {
	s.mu.Lock()
	e, ok := s.ids[id]
	s.mu.Unlock()
	if !ok {
		return RunKey{}, RunUnknown, Outcome{}, nil
	}
	select {
	case <-e.done:
	default:
		return e.key, RunRunning, Outcome{}, nil
	}
	if e.err != nil {
		return e.key, RunFailed, Outcome{}, e.err
	}
	return e.key, RunDone, e.out.outcome(), nil
}

// maxAbortedTraces bounds the salvaged-recorder list: under a long failure
// storm a long-lived server would otherwise accumulate one full trace
// recorder per failed run without limit. The most recent failures are the
// diagnostically useful ones, so older salvaged traces are dropped first.
const maxAbortedTraces = 32

// finish evicts a failed entry and then publishes the entry's result. A
// failed run's id, if a Lookup claimed it, then reads a stub holding only the
// key and error. A failed (or canceled) traced run's recorder is salvaged
// into the aborted list (capped at maxAbortedTraces, oldest dropped), so an
// interrupted suite still flushes usable partial traces on drain (see
// AbortedTracedRuns). All of it happens before the waiters are released, so
// a drain that has seen every waiter return also sees every salvaged trace.
func (s *Scheduler) finish(e *runEntry, st *expStats) {
	defer close(e.done)
	if e.err == nil {
		return
	}
	s.failures.Add(1)
	if st != nil {
		st.failures.Add(1)
	}
	key, id := e.key, e.key.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs[key] == e {
		delete(s.runs, key)
	}
	if s.ids[id] == e {
		s.ids[id] = &runEntry{key: key, done: e.done, err: e.err}
	}
	if e.out.rec != nil {
		if len(s.aborted) >= maxAbortedTraces {
			n := copy(s.aborted, s.aborted[len(s.aborted)-maxAbortedTraces+1:])
			s.aborted = s.aborted[:n]
		}
		s.aborted = append(s.aborted, TracedRun{Key: key, Rec: e.out.rec, Err: e.err})
	}
}

// execute runs the simulation a key describes, once, under its DeriveSeed.
//
// When a warm store is configured, an eligible run first consults it: an
// exact-identity snapshot (same ReplayHash) replays the recorded result
// without simulating at all — simulations are deterministic, so the replayed
// result is byte-identical to what re-running would produce. Any other
// outcome (no snapshot, stale hash, corrupt file) is counted as a miss or as
// invalid and falls through to a simulation, whose result is saved back.
func (s *Scheduler) execute(ctx context.Context, key RunKey, prior *core.AccelState, prov *transfer.Provenance) (runOutput, error) {
	if s.warm.eligible(key) {
		out, err := s.warm.replay(key, prov)
		switch {
		case err == nil:
			s.warmHits.Add(1)
			return out, nil
		case errors.Is(err, pltstore.ErrNotFound):
			s.warmMisses.Add(1)
		default:
			s.warmInvalid.Add(1)
		}
	}
	// Full-system runs record the §3 profile as they go.
	var h Hooks
	if s.cfg.Trace {
		h.Trace = trace.NewRecorder(trace.DefaultConfig())
	}
	var prof *core.Profiler
	if key.Mode == machine.FullSystem {
		prof = core.NewProfiler()
		h.Observer = prof.Observer()
	}
	out, err := simulate(ctx, s.cfg.Timeout, key, prior, prov, h)
	out.prof = prof
	if prior != nil && out.acc != nil && out.transfer == nil {
		// The accelerator refused the donor prior: the run was cold.
		s.transferHits.Add(-1)
		s.transferRejected.Add(1)
	}
	if err != nil {
		// Keep the failed run's partial output: its recorder holds the trace
		// up to the abort point, which the drain path salvages.
		return out, &RunError{Key: key, Timeout: isTimeout(ctx, err), Cause: err}
	}
	if out.acc != nil {
		s.pltLearned.Add(out.acc.Summary().Learned)
	}
	if out.smp != nil {
		rep := out.smp.Report()
		s.sampledRuns.Add(1)
		s.sampleDet.Add(rep.Detailed)
		s.sampleExtrap.Add(rep.Extrapolated)
	}
	if s.warm.eligible(key) && s.warm.Save(warmSnapshot(key, out)) == nil {
		s.warmSaves.Add(1)
	}
	return out, nil
}

// isTimeout reports whether err is a per-run deadline rather than a suite
// cancellation: the run was aborted but the surrounding context is live.
func isTimeout(ctx context.Context, err error) bool {
	return ctx.Err() == nil &&
		(errors.Is(err, machine.ErrCanceled) || errors.Is(err, context.DeadlineExceeded))
}

// --- the single-run steps ---------------------------------------------------
// Shared by the scheduler and RunOnce; the scheduler adds the memo cache,
// the sibling-donor form and counters.

// Hooks are the inputs of a run outside its key. They observe without
// changing the simulation, so no identity encodes them; a run with either
// one attached is always simulated, never replayed.
type Hooks struct {
	Observer func(machine.IntervalRecord) // every completed OS service interval
	Trace    *trace.Recorder              // the run's intervals and metrics
}

// Single is one run of RunOnce. Replayed reports that it was reconstructed
// from its exact-identity snapshot: Result then holds the recorded Stats and
// no Machine or Kernel. SaveErr is the best-effort snapshot save's error.
type Single struct {
	Outcome
	Replayed bool
	SaveErr  error
}

// RunOnce runs key once, outside any Scheduler, through the scheduler's own
// steps, so a run of one key means the same thing on every front-end and
// against the same warm store. With warmDir set (Accelerated keys only) it
// opens the store with the recovery sweep, resolves a "store" directive to
// its donor, replays an exact-identity snapshot, and otherwise simulates and
// saves when eligible. There is no memoisation or timeout; an "l2="
// directive, whose donor is a sibling run, is rejected, and a rejected
// directive leaves the run cold with a nil Transfer.
func RunOnce(key RunKey, warmDir string, h Hooks) (Single, error) {
	key = key.Normalized()
	var w *warmStore
	if warmDir != "" && key.Mode == machine.Accelerated {
		w, _ = openWarm(warmDir, nil, key.Transfer.Store)
	}
	prior, prov, _ := w.transferPrior(key, nil)
	if h.Observer == nil && h.Trace == nil && w.eligible(key) {
		if out, err := w.replay(key, prov); err == nil {
			return Single{Outcome: out.outcome(), Replayed: true}, nil
		}
	}
	out, err := simulate(context.Background(), 0, key, prior, prov, h)
	if err != nil {
		return Single{}, err
	}
	run := Single{Outcome: out.outcome()}
	if w.eligible(key) {
		run.SaveErr = w.Save(warmSnapshot(key, out))
	}
	return run, nil
}

// Assemble builds key's machine and kernel, with the accelerator and sampler
// a run of key attaches, for custom guest programs: no benchmark is set up.
func Assemble(key RunKey, h Hooks) (*workload.Sim, *core.Accelerator, *sample.Sampler) {
	opts, out := build(key.Normalized(), nil, nil, nil, h)
	return workload.Assemble(opts), out.acc, out.smp
}

// simulate runs key, bounded by timeout (0 = none). A panic escaping the
// workload's own recovery (e.g. out of a Prepare hook) becomes an error, so
// a broken run never takes down a worker or the suite.
func simulate(ctx context.Context, timeout time.Duration, key RunKey, prior *core.AccelState, prov *transfer.Provenance, h Hooks) (out runOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run %s: panic: %v\n%s", key, r, debug.Stack())
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts, out := build(key, ctx.Done(), prior, prov, h)
	out.res, err = workload.Run(key.Bench, opts)
	return out, err
}

// build is key's workload configuration with hooks, accelerator and sampler
// attached. A non-nil prior warm-starts the learners; if Import refuses it
// the accelerator stays empty and out.transfer nil, so the run is cold —
// never a silent half-import.
func build(key RunKey, done <-chan struct{}, prior *core.AccelState, prov *transfer.Provenance, h Hooks) (workload.Options, runOutput) {
	opts := runOptions(key, done)
	opts.Observer, opts.Trace = h.Observer, h.Trace
	out := runOutput{rec: h.Trace}
	if key.Mode == machine.Accelerated {
		out.acc = core.NewAccelerator(accelParamsFor(key))
		if prior != nil && out.acc.Import(prior) == nil {
			out.transfer = prov
		}
		opts.Sink = out.acc
	}
	if key.Sample != (sample.Spec{}) {
		// Seeded by the run's machine seed: sampling decisions are a pure
		// function of the key, like everything else about the run.
		out.smp = sample.New(key.Sample, opts.Machine.Seed)
		opts.Sample = out.smp
	}
	return opts, out
}

// runOptions is the workload configuration of key: the key's machine with
// its derived seed, its workload scale, its fault plan, and cancellation when
// done closes. Every simulation of a key — the scheduler's runs, RunOnce and
// the warmstart experiment's reruns — is built here, so they are the same
// deterministic run.
func runOptions(key RunKey, done <-chan struct{}) workload.Options {
	opts := workload.DefaultOptions()
	opts.Scale = key.Scale
	opts.Machine = machineConfigFor(key)
	opts.Cancel = done
	if plan := faultPlanFor(key); plan != nil {
		opts.Prepare = plan.Install
	}
	return opts
}

// --- cross-config transfer --------------------------------------------------

// transferPrior resolves key's transfer directive into rescaled donor priors
// and their provenance: all nil without a directive, an error for every
// rejection (a key that is not Accelerated, no eligible donor, a failed
// donor run, an invalid rescale). "store" takes the nearest donor in the
// frozen set; "l2=<bytes>" the table of the sibling run at that L2, which
// sibling supplies (nil rejects the form). Either way the donor becomes a
// snapshot and takes pltstore's one donor path.
func (w *warmStore) transferPrior(key RunKey, sibling func(RunKey) (runOutput, error)) (*core.AccelState, *transfer.Provenance, error) {
	spec := key.Transfer
	if spec == (transfer.Spec{}) {
		return nil, nil, nil
	}
	if key.Mode != machine.Accelerated {
		return nil, nil, fmt.Errorf("transfer: %s is not an accelerated run", key)
	}
	recip := transfer.FromConfig(machineConfigFor(key))
	var donor *pltstore.Snapshot
	var err error
	switch {
	case spec.Store && w != nil:
		if donor, err = pltstore.Nearest(w.donors, familyHash(key), recip); err != nil {
			return nil, nil, err
		}
	case !spec.Store && sibling != nil:
		donorKey := key
		donorKey.Transfer, donorKey.L2 = transfer.Spec{}, spec.L2
		donorKey = donorKey.Normalized()
		out, err := sibling(donorKey)
		if err != nil {
			return nil, nil, err
		}
		donor = warmSnapshot(donorKey, out) // Accelerated, so out.acc is set
	default:
		return nil, nil, pltstore.ErrNotFound
	}
	return pltstore.DonorPrior(donor, recip, accelParamsFor(key))
}

// TransferRecord pairs a completed run with its transfer provenance, for the
// CLIs' summary lines.
type TransferRecord struct {
	Key  RunKey
	Prov transfer.Provenance
}

// Transfers lists the completed runs that imported donor priors, sorted by
// key for deterministic output.
func (s *Scheduler) Transfers() []TransferRecord {
	var out []TransferRecord
	s.settled(expired, nil, func(k RunKey, e *runEntry) {
		if e.err == nil && e.out.transfer != nil {
			out = append(out, TransferRecord{Key: k, Prov: *e.out.transfer})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// --- warm-start store -------------------------------------------------------

// warmStore is an opened PLT snapshot store plus the donor set for "store"
// directives, frozen at open: every valid, cold-learned snapshot the
// directory held then. Snapshots saved *during* this invocation never donate
// within it, so tables stay byte-identical at any -j. A nil *warmStore is no
// store: nothing is eligible and every "store" directive is rejected.
type warmStore struct {
	*pltstore.Store
	donors []*pltstore.Snapshot
}

// openWarm opens the store at dir on fsys (nil = the real filesystem) with
// the startup recovery sweep: orphan temps are deleted and torn or corrupt
// snapshots quarantined, so a damaged store degrades to counted cold starts.
// The sweep is best-effort: if it fails, per-load verification remains.
// withDonors loads the donor set.
func openWarm(dir string, fsys durable.FS, withDonors bool) (*warmStore, pltstore.RecoveryReport) {
	if fsys == nil {
		fsys = durable.OS()
	}
	w := &warmStore{Store: pltstore.OpenFS(dir, fsys)}
	rep, _ := w.Recover()
	if withDonors {
		w.donors = w.Donors()
	}
	return w, rep
}

// eligible: only Accelerated runs carry learned state worth persisting.
// Sampled runs are excluded: their statistics depend on the sampler's
// estimator, the snapshot identity does not encode the sampling spec, and a
// stats-only replay would drop the run's Report (the error-bar contract).
func (w *warmStore) eligible(key RunKey) bool {
	return w != nil && key.Mode == machine.Accelerated && key.Sample == (sample.Spec{})
}

// provHash is the provenance hash a run's replay address binds: the
// imported donor's TransferHash, or 0 for a cold run.
func provHash(prov *transfer.Provenance) uint64 {
	if prov == nil {
		return 0
	}
	return prov.Hash
}

// replay reconstructs an eligible key's output from its exact-identity
// snapshot — recorded Stats plus an accelerator imported from the persisted
// state — without executing anything; prov is the donor the run resolved.
// The error is pltstore.ErrNotFound when the configuration has no snapshot,
// and another error when it has one that cannot stand in for this run
// (corrupt, stale, another seed or donor): the run then simulates, never
// returning a wrong result. Replays carry no trace recorder.
func (w *warmStore) replay(key RunKey, prov *transfer.Provenance) (runOutput, error) {
	snap, err := w.Load(key.Bench, warmLearnHash(key))
	if err != nil {
		return runOutput{}, err
	}
	if snap.ReplayHash != warmReplayHash(key, provHash(prov)) {
		return runOutput{}, errors.New("pltstore: snapshot records a different run")
	}
	acc := core.NewAccelerator(snap.State.Params)
	if err := acc.Import(snap.State); err != nil {
		return runOutput{}, err
	}
	return runOutput{res: workload.Result{Stats: snap.Stats}, acc: acc, transfer: prov}, nil
}

// warmSnapshot builds the (format v2) snapshot one successful run persists:
// alongside the learned state it records the sweep-family address and swept
// coordinates that make the snapshot discoverable as a transfer donor, and —
// for runs that imported priors — the TransferHash provenance trailer that
// both marks the table as transferred (ineligible to donate further) and
// binds its replay address to the exact donor and model imported.
func warmSnapshot(key RunKey, out runOutput) *pltstore.Snapshot {
	return &pltstore.Snapshot{
		LearnHash:    warmLearnHash(key),
		ReplayHash:   warmReplayHash(key, provHash(out.transfer)),
		Benchmark:    key.Bench,
		Key:          key.String(),
		Family:       familyHash(key),
		TransferHash: provHash(out.transfer),
		Coords:       transfer.FromConfig(machineConfigFor(key)),
		Stats:        out.res.Stats,
		State:        out.acc.Export(),
	}
}

// FlushWarm sweeps every completed successful accelerated run into the warm
// store — the authoritative drain-time save (server.WriteArtifacts calls it),
// catching any run whose best-effort per-run save failed. Already-completed
// runs are saved first (each save independently atomic, so every snapshot
// written is whole progress that survives whatever happens next), then
// in-flight runs are waited on only until ctx ends. Runs still in flight
// then are skipped and reported in the error; everything saved before that
// stays saved. A scheduler without a warm store is a no-op. The returned
// count is how many snapshots were written by this sweep.
func (s *Scheduler) FlushWarm(ctx context.Context) (int, error) {
	if s.warm == nil {
		return 0, nil
	}
	saved := 0
	var errs []error
	skipped := s.settled(ctx, s.warm.eligible, func(key RunKey, e *runEntry) {
		if e.err != nil || e.out.acc == nil {
			return
		}
		if err := s.warm.Save(warmSnapshot(key, e.out)); err != nil {
			errs = append(errs, err)
			return
		}
		s.warmSaves.Add(1)
		saved++
	})
	if skipped > 0 {
		errs = append(errs, fmt.Errorf("flush deadline: %d in-flight run(s) skipped: %w",
			skipped, ctx.Err()))
	}
	return saved, errors.Join(errs...)
}

// WarmDir returns the warm store's directory ("" when no store is configured).
func (s *Scheduler) WarmDir() string {
	if s.warm == nil {
		return ""
	}
	return s.warm.Dir()
}

// WarmSnapshot returns the newest snapshot the warm store holds for bench,
// as the verified file bytes and their decoded form, for serving front-ends
// that export learned state (GET /v1/plt/{benchmark}). The error is
// pltstore.ErrNotFound when no store is configured or bench has no snapshot,
// and the store's load error when the newest file fails verification.
func (s *Scheduler) WarmSnapshot(bench string) ([]byte, *pltstore.Snapshot, error) {
	if s.warm == nil {
		return nil, nil, pltstore.ErrNotFound
	}
	// An unreadable directory holds no snapshot. List sorts by name; pick the
	// newest by modification time so the most recently refreshed
	// configuration wins when several coexist. Equal timestamps (same-second
	// saves on coarse filesystems) break to the lexicographically smallest
	// path, so the choice is deterministic rather than an artifact of
	// directory iteration order.
	paths, _ := s.warm.List(bench)
	best, bestAt := "", time.Time{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		if best == "" || fi.ModTime().After(bestAt) ||
			(fi.ModTime().Equal(bestAt) && p < best) {
			best, bestAt = p, fi.ModTime()
		}
	}
	if best == "" {
		return nil, nil, pltstore.ErrNotFound
	}
	return s.warm.ReadPath(best)
}

// modeCosts returns the Table 1 host-cost measurement, pinned from the
// config when set, otherwise measured once per scheduler. Measurement drains
// the worker pool first so concurrent simulations cannot skew the timing.
func (s *Scheduler) modeCosts() ModeCosts {
	s.costsOnce.Do(func() {
		if s.cfg.ModeCosts != nil {
			s.costs = *s.cfg.ModeCosts
			return
		}
		for i := 0; i < cap(s.slots); i++ {
			s.slots <- struct{}{}
		}
		s.costs = measureModeCosts(3_000_000)
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
	})
	return s.costs
}

// --- key constructors -------------------------------------------------------

// benchKey is the cache key for a plain run of name under mode with the
// given L2 size (0 or the platform default both normalize to 0).
func (c Config) benchKey(name string, mode machine.SimMode, l2 int) RunKey {
	return RunKey{Bench: name, Mode: mode, L2: l2, Scale: c.Scale, Seed: c.Seed,
		Faults: c.Faults, Sample: c.Sample}.Normalized()
}

// accelKey is the cache key for an Accelerated run under the given
// re-learning strategy.
func (c Config) accelKey(name string, strat core.Strategy, l2 int) RunKey {
	k := c.benchKey(name, machine.Accelerated, l2)
	k.Strategy = strat
	// A -transfer invocation warm-starts every accelerated run from the
	// nearest store donor; rejections (no eligible donor) are counted and
	// fall back to cold, so the flag is safe on an empty store.
	if c.Transfer {
		k.Transfer = transfer.Spec{Store: true}
	}
	return k
}

// --- per-experiment attribution --------------------------------------------

// expStats attributes scheduler activity to one experiment run for its
// "harness:" note: how many of its requests were fresh simulations versus
// cache hits, and how much simulation wall-clock its fresh runs cost.
type expStats struct {
	hits     atomic.Int64
	misses   atomic.Int64
	failures atomic.Int64
	simWall  atomic.Int64
}

func (st *expStats) note(wall time.Duration, parallelism int) string {
	h, m := st.hits.Load(), st.misses.Load()
	s := fmt.Sprintf("harness: %d runs (%d simulated, %d cache hits), sim %.1fs, wall %.1fs, parallelism %d",
		h+m, m, h, time.Duration(st.simWall.Load()).Seconds(), wall.Seconds(), parallelism)
	if f := st.failures.Load(); f > 0 {
		s += fmt.Sprintf(", %d failed", f)
	}
	return s
}

// --- runner-facing helpers --------------------------------------------------

// runBench returns the (memoized) result of one benchmark under the given
// machine mode and L2 size.
func runBench(cfg Config, name string, mode machine.SimMode, l2 int) (workload.Result, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.benchKey(name, mode, l2), cfg.stats)
	return out.res, err
}

// getKey resolves an explicit key through the config's scheduler — for
// runners (like the faults experiment) that build keys beyond the standard
// benchKey/accelKey variants.
func getKey(cfg Config, key RunKey) (runOutput, error) {
	return cfg.sched.get(cfg.context(), key, cfg.stats)
}

// accelRun returns the (memoized) result of one benchmark under the
// accelerated scheme with the given strategy, plus the accelerator that
// drove it, for coverage inspection.
func accelRun(cfg Config, name string, strat core.Strategy, l2 int) (workload.Result, *core.Accelerator, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.accelKey(name, strat, l2), cfg.stats)
	return out.res, out.acc, err
}

// profileRun returns the §3 characterization profiler of a full-system run
// of name. The underlying simulation is the same cache entry the baseline
// figures use: every full-system run records its profile as it executes.
func profileRun(cfg Config, name string) (*core.Profiler, error) {
	out, err := cfg.sched.get(cfg.context(), cfg.benchKey(name, machine.FullSystem, 0), cfg.stats)
	return out.prof, err
}

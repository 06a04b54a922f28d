// Package experiments regenerates every table and figure of the paper's
// evaluation (Figs 1-12, Tables 1-2) on the simulated platform. Each
// experiment is a named runner producing a text table whose rows correspond
// to the series the paper plots; EXPERIMENTS.md records the paper-vs-measured
// comparison for each.
//
// Runners request simulations through a shared Scheduler (scheduler.go): a
// RunKey-addressed memo cache over a bounded worker pool, so each distinct
// (benchmark, mode, L2, scale, seed, options) simulation executes exactly
// once per suite and independent simulations run concurrently. Each run's
// machine seed is derived from the base seed and its RunKey, which makes
// every table a pure function of the Config — byte-identical at any
// parallelism level.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fssim/internal/durable"
	"fssim/internal/faults"
	"fssim/internal/machine"
	"fssim/internal/sample"
)

// Config scales and seeds the experiment runs.
type Config struct {
	Scale float64 // workload size multiplier (1.0 = defaults)
	Seed  int64   // base seed; per-run seeds are derived (RunKey.DeriveSeed)
	// Parallelism bounds how many simulations run concurrently; <= 0 means
	// GOMAXPROCS. Results are independent of the value.
	Parallelism int
	// ModeCosts, when non-nil, pins Table 1/2's host-cost measurement to
	// fixed values instead of timing the host — the deterministic form the
	// golden and determinism tests use (see ReferenceModeCosts).
	ModeCosts *ModeCosts

	// Timeout bounds each simulation's wall-clock time; 0 means unlimited.
	// A run that exceeds it is aborted cooperatively and reported as a
	// per-run *RunError with Timeout set.
	Timeout time.Duration
	// Faults is the faults.Named perturbation plan injected into every
	// simulation (the zero Spec = none). Enabling it changes every RunKey,
	// so faulted and unfaulted runs never share cache entries.
	Faults faults.Spec
	// Sample, when non-zero, attaches an application-interval stratified
	// sampler (a sample.ParseSpec result) to every simulation. It becomes
	// part of every RunKey, and each result's extrapolated figures carry a
	// variance-derived 95% confidence interval (Outcome.Sample). The zero
	// Spec disables sampling.
	Sample sample.Spec
	// Trace attaches a fresh trace.Recorder to every simulation the scheduler
	// executes. Recorders observe without influencing: a traced run's tables
	// and statistics are byte-identical to an untraced run's (asserted by
	// TestTracingDoesNotPerturbResults). Export the collected traces and
	// metrics through Scheduler.WriteChromeTrace / WriteJSONLTrace /
	// WriteRunMetrics.
	Trace bool
	// Transfer, when set, attaches the "store" transfer directive to every
	// accelerated run: its PLT is warm-started from the nearest eligible
	// donor snapshot in WarmDir's sweep-family index (rescaled to this
	// configuration, imported as low-confidence priors), cutting the learning
	// phase at every sweep point after the first. Requires WarmDir. Ineligible
	// or missing donors are counted (SchedStats.TransferRejected) and the run
	// proceeds cold — a transfer is never silent in either direction.
	Transfer bool
	// WarmDir, when set, roots a pltstore warm-start store there: every
	// successful accelerated run's learned PLT state is snapshotted to disk,
	// and an identical later run (same configuration, exact replay hash) is
	// reconstructed from its snapshot without simulating. Stale, mismatched
	// or corrupt snapshots degrade to cold starts with counted metrics
	// (SchedStats.Warm*), never to wrong predictions. Empty disables
	// persistence entirely; results are byte-identical either way.
	WarmDir string

	ctx   context.Context // suite-wide cancellation (WithContext)
	sched *Scheduler      // shared memo cache + worker pool (set by Run/RunAll)
	stats *expStats       // per-experiment cache-hit/timing attribution

	// warmFS overrides the warm store's filesystem (nil = the real one).
	// Test seam: crash-exploration suites inject a durable.CrashFS here to
	// record and replay every durable operation FlushWarm performs.
	warmFS durable.FS
}

// WithContext returns the config with a cancellation context attached: when
// ctx is canceled, in-flight simulations abort cooperatively and pending
// ones never start. Attach before building a Scheduler.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// context returns the attached context, defaulting to Background.
func (c Config) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// DefaultConfig runs at full default workload scale.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 1} }

// normalized fills defaulted fields: Scale 1.0, Seed 1, Parallelism
// GOMAXPROCS.
func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// validate rejects configs no experiment can run under.
func (c Config) validate() error {
	if c.Seed < 0 {
		return fmt.Errorf("experiments: seed must be non-negative, got %d", c.Seed)
	}
	// Zero means "no per-run deadline"; a negative duration is always a
	// configuration mistake and is rejected up front rather than silently
	// behaving like either extreme.
	if c.Timeout < 0 {
		return fmt.Errorf("experiments: timeout must be non-negative (0 = no deadline), got %v", c.Timeout)
	}
	if c.WarmDir != "" {
		if fi, err := os.Stat(c.WarmDir); err == nil && !fi.IsDir() {
			return fmt.Errorf("experiments: warm dir %s exists and is not a directory", c.WarmDir)
		}
	}
	if c.Transfer && c.WarmDir == "" {
		return errors.New("experiments: transfer requires a warm-start store (set WarmDir)")
	}
	return nil
}

// ReferenceModeCosts is a pinned, host-independent ModeCosts instance with
// the ordering every host exhibits (emulation cheapest, detailed OOO+cache
// most expensive; R = detailed/emulation = 40x). Tests and reproducible CLI
// runs use it so tab1/tab2 render identically everywhere.
var ReferenceModeCosts = ModeCosts{
	Emulation:      0.5,
	InorderNoCache: 2.0,
	InorderCache:   8.0,
	OOONoCache:     5.0,
	OOOCache:       20.0,
}

// Result is one regenerated artifact.
type Result struct {
	ID    string
	Title string
	Table *Table
	Notes []string
}

// Render formats the result for terminal output.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.Render())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// harnessNotePrefix marks the scheduler-stats note appended to every result;
// it carries host timings and is excluded from byte-comparable rendering.
const harnessNotePrefix = "harness:"

// StableRender formats the result omitting host-timing harness notes: the
// byte-comparable form the golden and determinism tests assert on.
func (r *Result) StableRender() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.Render())
	for _, n := range r.Notes {
		if strings.HasPrefix(n, harnessNotePrefix) {
			continue
		}
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// runner produces one artifact.
type runner struct {
	title string
	fn    func(Config) (*Result, error)
	// needs declares the simulations the runner will request, so Run can
	// prefetch them into the scheduler and the pool can execute them
	// concurrently while the runner consumes results in presentation order.
	needs func(Config) []RunKey
}

var registry map[string]runner

// The table is populated in init (not a composite-literal initializer)
// because runners reference Title, which reads the registry.
func init() {
	registry = map[string]runner{
		"fig1":  {"L2 misses, execution time and IPC: full-system vs application-only", Fig1, fig1Needs},
		"fig2":  {"Speedup of 1MB over 512KB L2: app-only vs full-system", Fig2, fig2Needs},
		"fig3":  {"Per-OS-service cycles and IPC (avg ± std), ab-rand and ab-seq", Fig3, profilePairNeeds},
		"fig4":  {"sys_read execution time across invocations", Fig4, profilePairNeeds},
		"fig5":  {"sys_read behavior points: instruction x cycle bubble histogram", Fig5, profilePairNeeds},
		"fig6":  {"Coefficient of variation: non-clustered vs scaled clusters", Fig6, fig6Needs},
		"fig7":  {"Initial learning window vs minimum probability of occurrence", Fig7, nil},
		"fig8":  {"Execution time and IPC: full vs predicted vs app-only", Fig8, fig8Needs},
		"fig9":  {"Cache miss rates: full-system vs predicted", Fig9, fig9Needs},
		"fig10": {"Speedup of 1MB over 512KB L2 incl. accelerated simulation", Fig10, fig10Needs},
		"fig11": {"Coverage and accuracy of the four re-learning strategies", Fig11, fig11Needs},
		"fig12": {"Prediction error across L2 sizes (1MB/2MB/4MB)", Fig12, fig12Needs},
		"tab1":  {"Simulation-mode slowdown ratios (measured wall-clock)", Table1, nil},
		"tab2":  {"Estimated simulation speedups (Eq 10)", Table2, tab2Needs},
		"faults": {"Re-learning strategies and the divergence watchdog under injected faults",
			FaultsExp, faultsExpNeeds},
		"warmstart": {"Warm-started PLTs: prediction parity, coverage and work saved vs cold learning",
			WarmstartExp, warmstartNeeds},
		"sampling": {"Stratified app-interval sampling: error/speedup curve with 95% confidence intervals",
			SamplingExp, samplingNeeds},
		"sweep": {"Cross-config transfer: warm-starting an L2 sweep from its first point",
			SweepExp, sweepNeeds},
	}
}

// IDs returns all experiment ids in paper order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, oj := orderKey(ids[i]), orderKey(ids[j])
		if oi != oj {
			return oi < oj
		}
		// Extensions share an order bucket; break ties lexically so the
		// listing stays deterministic (sort.Slice is not stable).
		return ids[i] < ids[j]
	})
	return ids
}

func orderKey(id string) int {
	var n int
	if strings.HasPrefix(id, "fig") {
		fmt.Sscanf(id, "fig%d", &n)
		return n
	}
	if strings.HasPrefix(id, "tab") {
		fmt.Sscanf(id, "tab%d", &n)
		return 100 + n
	}
	return 200 // extensions beyond the paper's artifacts sort last
}

// Title returns an experiment's title, or an error for unknown ids (instead
// of the zero-value lookup callers previously had to guard against).
func Title(id string) (string, error) {
	r, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r.title, nil
}

// Run executes one experiment by id on its own fresh scheduler. Use a
// Scheduler (or RunAll) to share the memo cache across experiments.
func Run(id string, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	return NewScheduler(cfg).Run(id)
}

// Run executes one experiment by id over the scheduler's shared cache.
func (s *Scheduler) Run(id string) (*Result, error) {
	if err := s.cfg.validate(); err != nil {
		return nil, err
	}
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	cfg := s.cfg
	cfg.sched = s
	cfg.stats = &expStats{}
	if r.needs != nil {
		s.prefetch(cfg.stats, r.needs(cfg)...)
	}
	start := time.Now()
	res, err := r.fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	res.Notes = append(res.Notes, cfg.stats.note(time.Since(start), s.Parallelism()))
	return res, nil
}

// RunAll regenerates the given artifacts (all of them when ids is empty)
// over one shared scheduler, running experiments concurrently; results come
// back in input order. The shared cache is where the harness's speedup
// comes from: across the full suite the detailed App+OS baselines, the
// Statistical-strategy accelerated runs and the profiled runs each execute
// once instead of once per figure.
func RunAll(ids []string, cfg Config) ([]*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
	}
	return NewScheduler(cfg).RunMany(ids)
}

// RunMany executes several experiments concurrently over the scheduler's
// shared cache, returning results in input order. One failing experiment no
// longer voids the suite: its slot in the result slice is nil and its error
// is joined into the returned error, while every other experiment's result
// is still returned — callers render what succeeded and report what failed.
func (s *Scheduler) RunMany(ids []string) ([]*Result, error) {
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			results[i], errs[i] = s.Run(id)
		}(i, id)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// --- shared run helpers ----------------------------------------------------

func defaultL2() int { return machine.DefaultConfig().Mem.L2.Size }

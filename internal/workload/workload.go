// Package workload assembles the paper's nine evaluation benchmarks — the
// five OS-intensive workloads (ab-rand, ab-seq, du, find-od, iperf) and the
// four SPEC2000-like controls (gzip, vpr, art, swim) — into runnable
// simulations: machine + kernel + guest programs + traffic models.
package workload

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"fssim/internal/guest"
	"fssim/internal/kernel"
	"fssim/internal/machine"
	"fssim/internal/trace"
)

// ErrUnknown is wrapped by Lookup/Run for unregistered benchmark names.
var ErrUnknown = errors.New("workload: unknown benchmark")

// Benchmark describes one named workload.
type Benchmark struct {
	Name        string
	OSIntensive bool
	Description string
	// Hidden benchmarks are runnable via Lookup/Run but excluded from
	// Names(), so synthetic probes never leak into the paper-artifact
	// experiments (which enumerate the benchmark set).
	Hidden bool
	setup  func(k *kernel.Kernel, scale float64)
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

var registry = map[string]Benchmark{
	"ab-single": {
		Name: "ab-single", OSIntensive: true,
		Description: "Apache-like server, unmodified ab: one page repeatedly",
		setup: func(k *kernel.Kernel, scale float64) {
			guest.SetupWebServer(k, guest.SingleWebConfig(scaled(320, scale)))
		},
	},
	"ab-rand": {
		Name: "ab-rand", OSIntensive: true,
		Description: "Apache-like server, random page requests (8 concurrent)",
		setup: func(k *kernel.Kernel, scale float64) {
			guest.SetupWebServer(k, guest.DefaultWebConfig(false, scaled(320, scale)))
		},
	},
	"ab-seq": {
		Name: "ab-seq", OSIntensive: true,
		Description: "Apache-like server, sequential size-sorted page requests",
		setup: func(k *kernel.Kernel, scale float64) {
			guest.SetupWebServer(k, guest.DefaultWebConfig(true, scaled(700, scale)))
		},
	},
	"du": {
		Name: "du", OSIntensive: true,
		Description: "disk-usage walk of a ~1000-file /usr tree",
		setup: func(k *kernel.Kernel, scale float64) {
			tree := guest.DefaultTreeConfig()
			if scale < 1 {
				tree.TopDirs = scaled(tree.TopDirs, scale)
			}
			guest.BuildTree(k, tree)
			guest.SetupDu(k, tree)
		},
	},
	"find-od": {
		Name: "find-od", OSIntensive: true,
		Description: "find -exec od over a /usr subtree (fork+exec per file)",
		setup: func(k *kernel.Kernel, scale float64) {
			cfg := guest.DefaultFindOdConfig()
			cfg.TopDirs = scaled(cfg.TopDirs, scale)
			guest.BuildTree(k, cfg.Tree)
			guest.SetupFindOd(k, cfg)
		},
	},
	"iperf": {
		Name: "iperf", OSIntensive: true,
		Description: "TCP bandwidth client: back-to-back socket writes",
		setup: func(k *kernel.Kernel, scale float64) {
			cfg := guest.DefaultIperfConfig()
			cfg.Writes = scaled(cfg.Writes, scale)
			guest.SetupIperf(k, cfg)
		},
	},
	"gzip": specBench("gzip", "hash-chain compression over a 448KB working set"),
	"vpr":  specBench("vpr", "random placement moves over a 1.5MB netlist"),
	"art":  specBench("art", "neural-net scans over ~2.5MB of arrays"),
	"swim": specBench("swim", "grid stencils streaming 4MB"),
}

func specBench(name, desc string) Benchmark {
	return Benchmark{
		Name: name, OSIntensive: false, Description: desc,
		setup: func(k *kernel.Kernel, scale float64) {
			guest.SetupSpec(k, name, guest.SpecConfig{WorkScale: scale})
		},
	}
}

// regMu guards registry against Register calls racing Lookup/Names; the
// built-in benchmarks are installed before init completes and never change.
var regMu sync.RWMutex

// Register adds (or replaces) a benchmark. Primarily for tests and harness
// extensions that need synthetic workloads (e.g. fault-injection probes or
// deliberately misbehaving benches for robustness testing).
func Register(b Benchmark, setup func(k *kernel.Kernel, scale float64)) {
	if b.Name == "" || setup == nil {
		panic("workload: Register requires a name and a setup function")
	}
	b.setup = setup
	regMu.Lock()
	registry[b.Name] = b
	regMu.Unlock()
}

// Names returns all benchmark names, OS-intensive first, each group in the
// paper's presentation order; later registrations sort after the built-ins,
// alphabetically.
func Names() []string {
	order := map[string]int{
		"ab-rand": 0, "ab-seq": 1, "du": 2, "find-od": 3, "iperf": 4,
		"gzip": 5, "vpr": 6, "art": 7, "swim": 8, "ab-single": 9,
	}
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for n, b := range registry {
		if !b.Hidden {
			out = append(out, n)
		}
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		oi, iok := order[out[i]]
		oj, jok := order[out[j]]
		if iok != jok {
			return iok // registered built-ins first
		}
		if !iok {
			return out[i] < out[j]
		}
		return oi < oj
	})
	return out
}

// OSIntensiveNames returns the five OS-intensive benchmark names.
func OSIntensiveNames() []string {
	return []string{"ab-rand", "ab-seq", "du", "find-od", "iperf"}
}

// Lookup returns the named benchmark. The error wraps ErrUnknown.
func Lookup(name string) (Benchmark, error) {
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Benchmark{}, fmt.Errorf("%w %q", ErrUnknown, name)
	}
	return b, nil
}

// Options configures one simulation run.
type Options struct {
	Machine  machine.Config
	Tunables kernel.Tunables
	Scale    float64 // workload size multiplier (default 1.0)
	Sink     machine.IntervalSink
	Observer func(machine.IntervalRecord)

	// Sample, if non-nil, attaches an application-interval sampling sink
	// (stratified sampling): user-mode stretches between OS services become
	// intervals the sink simulates in detail or fast-forwards. Orthogonal to
	// the OS-side Sink — the two compose.
	Sample machine.AppSink

	// Trace, if non-nil, attaches an interval recorder to the machine before
	// the kernel is built, so every subsystem resolves its instruments against
	// the run's registry. Nil (the default) keeps every instrumentation site a
	// guarded no-op and the simulation byte-identical to an untraced run.
	Trace *trace.Recorder

	// Prepare, if set, runs after workload setup and before the simulation
	// starts — the hook fault plans use to install their event schedules.
	Prepare func(k *kernel.Kernel)

	// Cancel, if non-nil, aborts the simulation when closed (or sent on). The
	// machine tears down cooperatively and Run returns machine.ErrCanceled
	// (wrapped in a *machine.AbortError cause chain).
	Cancel <-chan struct{}
}

// DefaultOptions returns the paper's platform at full workload scale.
func DefaultOptions() Options {
	return Options{
		Machine:  machine.DefaultConfig(),
		Tunables: kernel.DefaultTunables(),
		Scale:    1.0,
	}
}

// Result bundles the finished simulation's components for inspection.
type Result struct {
	Machine *machine.Machine
	Kernel  *kernel.Kernel
	Stats   machine.Stats
	// Trace is the recorder passed in Options.Trace (nil when untraced), and
	// Metrics its registry snapshot taken when the simulation finished.
	Trace   *trace.Recorder
	Metrics trace.Snapshot
	// Wall is the host wall-clock time the simulation took; the experiment
	// harness aggregates it to report saved work when runs are memoized.
	Wall time.Duration
}

// Run builds and runs the named benchmark to completion: Assemble, the
// benchmark's setup, then Sim.Run. Panics anywhere in setup or simulation
// are converted to errors rather than crashing the caller, and a closed
// Options.Cancel channel aborts the run cooperatively; in both cases the
// partially simulated machine state is still returned for diagnostics.
func Run(name string, opts Options) (res Result, err error) {
	b, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			err = fmt.Errorf("workload %s: panic: %v\n%s", name, r, debug.Stack())
		}
	}()
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	s := Assemble(opts)
	res = Result{Machine: s.Machine, Kernel: s.Kernel, Trace: opts.Trace}
	b.setup(s.Kernel, opts.Scale)
	return s.Run()
}

// Sim is an assembled simulation awaiting its guest programs: the machine
// with the run's recorder, sinks and observer attached, and the kernel built
// on it. Benchmarks (Run) and custom systems (fssim.NewSystem) populate the
// kernel, then call Run.
type Sim struct {
	Machine *machine.Machine
	Kernel  *kernel.Kernel
	opts    Options
}

// Assemble builds the machine and kernel opts describe. The recorder is
// attached before kernel.New so the kernel (and everything after it)
// resolves instruments against the run's registry.
func Assemble(opts Options) *Sim {
	m := machine.New(opts.Machine)
	m.SetSink(opts.Sink)
	m.SetAppSink(opts.Sample)
	m.SetObserver(opts.Observer)
	if opts.Trace != nil {
		m.SetTrace(opts.Trace)
		// Sinks that understand recorders (the Accelerator and the Sampler
		// do) annotate spans with their outcomes and emit phase instants.
		type recorderSetter interface{ SetRecorder(*trace.Recorder) }
		for _, h := range []any{opts.Sink, opts.Sample} {
			if rs, ok := h.(recorderSetter); ok {
				rs.SetRecorder(opts.Trace)
			}
		}
	}
	return &Sim{Machine: m, Kernel: kernel.New(m, opts.Tunables), opts: opts}
}

// Run simulates the populated system until every thread exits and returns
// its result (Wall is left to the caller). The error is the kernel's: a
// guest-thread panic or a cancellation; the statistics then cover the
// simulated prefix.
func (s *Sim) Run() (Result, error) {
	m, k, opts := s.Machine, s.Kernel, s.opts
	// Workloads with a declared warm-up (the web benchmarks skip their first
	// requests, iperf its first writes, as in the paper's §5.2) defer the
	// acceleration engine and reset the statistics baseline at the warm
	// point, so measurement and learning both cover the steady state.
	if m.HasWarmup() {
		type armer interface{ Arm() }
		type deferrer interface{ Defer() }
		var arms []func()
		for _, h := range []any{opts.Sink, opts.Sample} {
			a, ok := h.(armer)
			if !ok {
				continue
			}
			if d, ok := h.(deferrer); ok {
				d.Defer()
			}
			arms = append(arms, a.Arm)
		}
		if len(arms) > 0 {
			m.SetWarmCallback(func() {
				for _, f := range arms {
					f()
				}
			})
		}
	}
	if opts.Prepare != nil {
		opts.Prepare(k)
	}
	if opts.Cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-opts.Cancel:
				m.Cancel(nil) // default cause: machine.ErrCanceled
			case <-stop:
			}
		}()
	}
	err := k.Run()
	// Close the final user-mode stretch so sampled runs account every
	// instruction to exactly one interval (no-op without a sampling sink).
	m.FinishApp()
	res := Result{Machine: m, Kernel: k, Stats: m.Stats(), Trace: opts.Trace}
	if opts.Trace.Enabled() {
		res.Metrics = opts.Trace.Metrics().Snapshot()
	}
	return res, err
}

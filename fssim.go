// Package fssim is a full-system simulator with OS-service performance
// prediction, reproducing "Accelerating Full-System Simulation through
// Characterizing and Predicting Operating System Performance" (Kim, Liu,
// Solihin, Iyer, Zhao, Cohen — ISPASS 2007).
//
// The simulator models a Pentium-4-class machine (out-of-order core, L1I/L1D
// + unified L2, split-transaction bus) running a Linux-2.6-like kernel
// (VFS with dentry and page caches, block device, TCP-like sockets,
// preemptive scheduler, demand paging) under the paper's nine evaluation
// workloads. The acceleration scheme learns each OS service's performance
// behavior points into a Performance Lookup Table and then fast-forwards
// service invocations in emulation mode, predicting their cycles and cache
// effects from the instruction-count signature.
//
// # Running a benchmark
//
//	report, err := fssim.RunBenchmark("ab-rand", fssim.Options{})
//
// # Accelerating it
//
//	opts := fssim.Options{Mode: fssim.Accelerated}
//	report, err := fssim.RunBenchmark("ab-rand", opts)
//	fmt.Println(report.Coverage(), report.IPC())
//
// # Building a custom workload
//
//	sys := fssim.NewSystem(fssim.Options{})
//	sys.FS().MustCreate("/data/input", 1<<20)
//	sys.Spawn("myapp", func(p *fssim.Proc) {
//	    fd := p.Open("/data/input")
//	    for p.Read(fd, p.Scratch(), 64<<10) > 0 {
//	        p.U.Mix(5000) // process the chunk
//	    }
//	    p.Close(fd)
//	})
//	report := sys.Run()
//
// # Regenerating the paper's evaluation
//
//	go run ./cmd/fsbench            # every figure and table
//	go test -bench=. -benchmem      # one benchmark per artifact + ablations
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package fssim

import (
	"context"
	"io"

	"fssim/internal/core"
	"fssim/internal/experiments"
	"fssim/internal/isa"
	"fssim/internal/kernel"
	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/server"
	"fssim/internal/trace"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// Re-exported simulation modes (paper terminology).
const (
	// FullSystem simulates application and OS in full detail ("App+OS").
	FullSystem = machine.FullSystem
	// AppOnly simulates only the application; OS services are functionally
	// executed but cost nothing ("App Only").
	AppOnly = machine.AppOnly
	// Accelerated runs the paper's scheme ("App+OS Pred"): OS services are
	// learned, then fast-forwarded and predicted.
	Accelerated = machine.Accelerated
)

// Re-exported re-learning strategies (paper §4.4).
const (
	BestMatch   = core.BestMatch
	Eager       = core.Eager
	Delayed     = core.Delayed
	Statistical = core.Statistical
)

// Core simulated-system types, usable for building custom workloads.
type (
	// Machine is the simulated hardware: core, caches, bus, event queue.
	Machine = machine.Machine
	// Kernel is the simulated operating system.
	Kernel = kernel.Kernel
	// Proc is a guest thread's view of the OS: user-mode execution plus
	// system calls.
	Proc = kernel.Proc
	// Thread is a kernel-scheduled thread.
	Thread = kernel.Thread
	// Socket is a TCP-like socket endpoint.
	Socket = kernel.Socket
	// ServiceID names an OS service (sys_read, Int_239, ...).
	ServiceID = isa.ServiceID
	// Stats is the machine-level aggregate measurement.
	Stats = machine.Stats
	// IntervalRecord describes one completed OS service interval.
	IntervalRecord = machine.IntervalRecord

	// Accelerator is the paper's acceleration engine.
	Accelerator = core.Accelerator
	// Strategy selects the re-learning policy.
	Strategy = core.Strategy
	// Profiler performs the paper's §3 characterization of OS services.
	Profiler = core.Profiler

	// SampleSpec configures a sampling policy (parse with ParseSampleSpec).
	SampleSpec = sample.Spec
	// SampleReport is a sampled run's estimator output: strata, the
	// detailed/extrapolated split, and the 95% CI on extrapolated cycles.
	SampleReport = sample.Report

	// Tracer is the observability recorder: per-interval spans, instants and
	// a typed metrics registry, exportable as Chrome trace-event JSON
	// (Perfetto), JSON lines, or a plaintext metrics dump. A nil *Tracer is
	// valid everywhere and records nothing.
	Tracer = trace.Recorder
	// ServiceTotal aggregates every recorded interval of one OS service.
	ServiceTotal = trace.ServiceTotal
)

// Options configures a simulation run.
type Options struct {
	// Mode selects full-system (default), application-only, or accelerated
	// simulation.
	Mode machine.SimMode
	// Strategy selects the re-learning policy for Accelerated mode. The
	// zero value is BestMatch, which is used as is; set Statistical for the
	// paper's choice.
	Strategy Strategy
	// Scale multiplies workload sizes (default 1.0).
	Scale float64
	// L2Size overrides the L2 capacity in bytes (default 1MB, paper §5.1).
	L2Size int
	// Seed is the base seed (default 1): the machine seed is derived from it
	// and the run's coordinates, as for fsbench -seed and fssimd's "seed".
	Seed int64
	// InOrder selects the in-order core model instead of out-of-order.
	InOrder bool
	// NoCaches disables the cache models (ideal memory).
	NoCaches bool
	// TLB enables TLB modeling (64-entry I/D TLBs, page walks, flush on
	// address-space switch) — an extension beyond the paper's platform.
	TLB bool
	// Prefetch enables the L2 next-line prefetcher — likewise an extension.
	Prefetch bool
	// Sample attaches an application-interval stratified sampler, parsed
	// from a preset name ("default", "fast", "precise") or a key=value spec
	// by ParseSampleSpec. Sampled runs simulate only budgeted representative
	// app intervals in detail, fast-forward the rest, and report extrapolated
	// figures with a 95% confidence interval (Report.Sample). The zero
	// SampleSpec disables sampling.
	Sample SampleSpec
	// WarmDir roots a PLT snapshot store shared with fsbench and fssimd
	// -warm-dir (created on first save). An Accelerated run the store has
	// recorded, seed included, is replayed without simulating
	// (Report.Replayed); any other simulates and saves its table. A stale or
	// corrupt snapshot never gives a wrong result. Sampled runs neither
	// replay nor save. Empty, or any other mode, disables persistence.
	WarmDir string
	// Transfer imports the nearest transfer-eligible donor table in WarmDir
	// (the same config at another seed, or a neighbor) as low-confidence
	// priors before simulating; Report.Transfer names it. No eligible donor
	// leaves the run cold.
	Transfer bool
	// Observer, if set, receives every completed OS service interval.
	Observer func(IntervalRecord)
	// Trace, if set, records every OS service interval plus the kernel's and
	// accelerator's metrics into the given recorder. Tracing observes without
	// influencing: traced and untraced runs produce identical statistics.
	Trace *Tracer
}

// key projects the options onto the run identity every front-end uses;
// Observer and Trace, the only inputs left out, are experiments.Hooks.
func (o Options) key(bench string) experiments.RunKey {
	return experiments.RunKey{Bench: bench, Mode: o.Mode, L2: max(o.L2Size, 0), Scale: o.Scale,
		Seed: o.Seed, Strategy: o.Strategy,
		InOrder: o.InOrder, NoCaches: o.NoCaches, TLB: o.TLB, Prefetch: o.Prefetch,
		Sample: o.Sample, Transfer: transfer.Spec{Store: o.Transfer}}.Normalized()
}

// Report is the outcome of a simulation run.
type Report struct {
	// Stats is the measured period's aggregate statistics.
	Stats Stats
	// Accel exposes the acceleration engine's state (nil unless the run was
	// Accelerated).
	Accel *Accelerator
	// Sample is the stratified-sampling estimator's report (nil unless
	// Options.Sample was set): strata, detailed/extrapolated split, and the
	// 95% confidence half-width on the extrapolated cycles.
	Sample *SampleReport
	// Machine and Kernel expose the finished simulation for inspection (nil
	// on a replay).
	Machine *Machine
	Kernel  *Kernel
	// Replayed reports that the run was reconstructed from its snapshot in
	// Options.WarmDir instead of simulated (Stats and Accel as recorded).
	Replayed bool
	// Transfer is the provenance of the donor table an Options.Transfer run
	// imported (nil when none was imported).
	Transfer *transfer.Provenance
	// SaveErr is the best-effort PLT snapshot save's error: an unwritable
	// warm dir degrades persistence, not the run.
	SaveErr error
	// Err is non-nil when the run ended abnormally (a guest-thread panic
	// captured by the kernel scheduler, or a cancellation); Stats then cover
	// the simulated prefix.
	Err error
}

// IPC returns the run's overall instructions per cycle.
func (r *Report) IPC() float64 { return r.Stats.IPC() }

// Cycles returns the simulated execution time in cycles.
func (r *Report) Cycles() uint64 { return r.Stats.Cycles }

// Coverage returns the fraction of OS service invocations fast-forwarded
// (0 for non-accelerated runs).
func (r *Report) Coverage() float64 {
	if r.Accel == nil {
		return 0
	}
	return r.Accel.Summary().Coverage()
}

// Benchmarks returns the evaluation suite's workload names, OS-intensive
// first (ab-rand, ab-seq, du, find-od, iperf, gzip, vpr, art, swim).
func Benchmarks() []string { return workload.Names() }

// OSIntensiveBenchmarks returns the five OS-intensive workload names.
func OSIntensiveBenchmarks() []string { return workload.OSIntensiveNames() }

// RunBenchmark builds and runs one of the named evaluation workloads. With
// Options.WarmDir set, an Accelerated run replays from, or persists to, the
// PLT snapshot store rooted there.
func RunBenchmark(name string, o Options) (*Report, error) {
	run, err := experiments.RunOnce(o.key(name), o.WarmDir, experiments.Hooks{Observer: o.Observer, Trace: o.Trace})
	if err != nil {
		return nil, err
	}
	return &Report{Stats: run.Result.Stats, Accel: run.Accel, Sample: run.Sample,
		Machine: run.Result.Machine, Kernel: run.Result.Kernel,
		Replayed: run.Replayed, Transfer: run.Transfer, SaveErr: run.SaveErr}, nil
}

func sampleReport(smp *sample.Sampler) *SampleReport {
	if smp == nil {
		return nil
	}
	r := smp.Report()
	return &r
}

// System is an assembled simulated machine + OS awaiting custom workloads.
type System struct {
	sim *workload.Sim
	acc *Accelerator
	smp *sample.Sampler
}

// NewSystem builds a simulated system for custom guest programs, assembled
// exactly as a benchmark's.
func NewSystem(o Options) *System {
	var s System
	s.sim, s.acc, s.smp = experiments.Assemble(o.key(""), experiments.Hooks{Observer: o.Observer, Trace: o.Trace})
	return &s
}

// Machine returns the simulated hardware.
func (s *System) Machine() *Machine { return s.sim.Machine }

// Kernel returns the simulated OS.
func (s *System) Kernel() *Kernel { return s.sim.Kernel }

// FS returns the simulated filesystem for setup (MustCreate, MustMkdir, ...).
func (s *System) FS() *kernel.FS { return s.sim.Kernel.FS() }

// Net returns the simulated network stack for setup.
func (s *System) Net() *kernel.Net { return s.sim.Kernel.Net() }

// Spawn creates a guest thread running body when Run is called.
func (s *System) Spawn(name string, body func(*Proc)) *Thread {
	return s.sim.Kernel.Spawn(name, body)
}

// Run executes the system until every thread exits and returns the report.
// A guest-thread panic or a machine cancellation surfaces in Report.Err; the
// partially simulated statistics are still reported.
func (s *System) Run() *Report {
	res, err := s.sim.Run()
	return &Report{Stats: res.Stats, Accel: s.acc, Sample: sampleReport(s.smp),
		Machine: res.Machine, Kernel: res.Kernel, Err: err}
}

// NewProfiler returns a §3 characterization profiler; attach its Observer.
func NewProfiler() *Profiler { return core.NewProfiler() }

// ParseSampleSpec parses a sampling policy: a preset name ("default",
// "fast", "precise") or a comma-separated key=value list (budget, min,
// pilot, range, refresh, mix), e.g. "fast,budget=6".
func ParseSampleSpec(s string) (SampleSpec, error) { return sample.ParseSpec(s) }

// NewTracer returns an observability recorder with default ring capacities,
// ready to pass as Options.Trace.
func NewTracer() *Tracer { return trace.NewRecorder(trace.DefaultConfig()) }

// WriteChromeTrace exports one recorder as a Chrome trace-event JSON document
// that loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: one thread lane per OS service, one slice per interval.
func WriteChromeTrace(w io.Writer, label string, t *Tracer) error {
	return trace.WriteChrome(w, label, t)
}

// Serving front-end types (see cmd/fssimd and internal/server).
type (
	// ServerConfig configures the resilient HTTP serving front-end: listen
	// address, admission-queue bound, worker-pool width, request deadline,
	// drain budget, per-run timeout, and drain-time artifacts.
	ServerConfig = server.Config
	// ServerClient talks to a running fssimd.
	ServerClient = server.Client
	// RunRequest is the JSON body of POST /v1/runs.
	RunRequest = server.RunRequest
	// RunResponse is the deterministic JSON body of a completed run.
	RunResponse = server.RunResponse
)

// Serve runs the serving front-end until ctx is canceled, then drains
// gracefully: admission stops, in-flight runs finish or are canceled within
// the drain budget, and trace/metrics artifacts are flushed. A nil error
// means a clean drain. See cmd/fssimd for the flag-driven daemon.
func Serve(ctx context.Context, cfg ServerConfig) error {
	return server.New(cfg).Serve(ctx)
}

// NewServerClient returns a client for the fssimd at base, e.g.
// "http://localhost:8080".
func NewServerClient(base string) *ServerClient { return server.NewClient(base) }

// Experiments lists the regenerable paper artifacts (fig1..fig12, tab1, tab2).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact and returns its rendered
// table.
func RunExperiment(id string, scale float64) (string, error) {
	out, err := RunExperiments(context.Background(), []string{id}, scale, 0)
	if err != nil {
		return "", err
	}
	return out[0], nil
}

// RunExperiments regenerates several paper artifacts over one shared
// experiment scheduler: each distinct simulation executes exactly once even
// when artifacts overlap (the App+OS baselines are shared by six of them),
// and up to parallelism simulations run concurrently (0 = GOMAXPROCS).
// Rendered tables come back in input order and are byte-identical at any
// parallelism level. An empty ids slice runs the full suite.
//
// Canceling ctx aborts in-flight simulations cooperatively (this is how
// fsbench turns Ctrl-C into a clean exit); experiments that completed before
// the cancellation are still rendered and returned alongside the error.
func RunExperiments(ctx context.Context, ids []string, scale float64, parallelism int) ([]string, error) {
	cfg := experiments.DefaultConfig().WithContext(ctx)
	if scale > 0 {
		cfg.Scale = scale
	}
	cfg.Parallelism = parallelism
	results, err := experiments.RunAll(ids, cfg)
	out := make([]string, 0, len(results))
	for _, res := range results {
		if res != nil {
			out = append(out, res.Render())
		}
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

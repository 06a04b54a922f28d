// Command perfbench is the repository's benchmark. It drives the simulator
// through its public package API on one of three workloads, checks the
// outputs, and prints one JSON line: the end-to-end metrics on an untraced run
// (--trace 0), the per-layer metrics on a traced run (--trace 1). README.md
// says which end-to-end metric each per-layer metric should move.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports each
// one; the simulator-speed and error metrics compare the workload's Full
// reference simulations with its fast path.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"full_mips", "MIPS"},
	{"fast_mips", "MIPS"},
	{"cycle_err_pct", "%"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metric{
	{"os.detailed_s", "s"},
	{"os.detailed_ns_per_inst", "ns"},
	{"os.emulated_s", "s"},
	{"os.emulated_ns_per_inst", "ns"},
	{"app.detailed_s", "s"},
	{"app.detailed_ns_per_inst", "ns"},
	{"app.emulated_s", "s"},
	{"app.emulated_ns_per_inst", "ns"},
	{"core.self_s", "s"},
	{"core.calls", "count"},
	{"core.ns_per_call", "ns"},
	{"sample.self_s", "s"},
	{"sample.ns_per_call", "ns"},
	{"workload.build_s", "s"},
	{"machine.gap_s", "s"},
	{"machine.tail_s", "s"},
	{"machine.os_intervals", "count"},
	{"machine.os_emulated", "count"},
	{"machine.app_intervals", "count"},
	{"machine.emu_insts", "count"},
	{"cpu.sim_insts", "count"},
	{"cpu.sim_cycles", "count"},
	{"cpu.br_mispreds", "count"},
	{"cache.l1i_misses", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_misses", "count"},
	{"memsys.dram_accesses", "count"},
	{"core.coverage_pct", "%"},
	{"core.clusters", "count"},
	{"core.relearns", "count"},
	{"sample.reduction_x", "x"},
	{"sample.ci95_pct", "%"},
	{"cpu.ooo_exec_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"experiments.distinct_runs", "count"},
	{"experiments.memo_hits", "count"},
	{"experiments.warm_hits", "count"},
	{"experiments.warm_saves", "count"},
	{"experiments.sim_s", "s"},
	{"transfer.hits", "count"},
	{"transfer.rejected", "count"},
	{"pltstore.open_ms", "ms"},
	{"pltstore.save_ms", "ms"},
	{"pltstore.load_ms", "ms"},
	{"pltstore.snapshot_kb", "KB"},
	{"server.req_p50_ms", "ms"},
	{"server.req_p90_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.warm_p50_ms", "ms"},
	{"server.rejected", "count"},
	{"accounting.speedup_x", "x"},
	{"accounting.r_measured", "x"},
	{"accounting.eq10_x", "x"},
	{"accounting.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// Run-shape constants: set-ups per run (setup_s is their median) and the
// fewest passes of each kind a run makes, however short --seconds is.
const (
	setupReps       = 5
	minPlainPasses  = 3
	minTracedPasses = 2
)

// maxErrPct is the correctness bound on every fast-path cycle error: the
// paper's worst accelerated case is 4.2%.
const maxErrPct = 5.0

// workloadDef is one benchmark workload.
type workloadDef interface {
	// setup builds one fresh fixture under dir and runs a miniature pass, so
	// lazy initialisation is done before the first timed pass.
	setup(dir string) error
	// pass runs one timed pass under dir; tr is nil on untraced passes.
	pass(dir string, tr *tracer) (*passStats, error)
	// probe measures layer calls outside the timed passes of a traced run.
	probe(dir string) (map[string]float64, error)
}

// passStats is what one pass measured.
type passStats struct {
	wall  time.Duration
	alloc uint64 // Go heap bytes allocated during the pass

	ops, failed int

	// Simulated instructions and the host time spent simulating them, for
	// the Full reference and the fast path; fastEmu counts the fast path's
	// fast-forwarded instructions.
	fullInsts, fastInsts, fastEmu uint64
	fullHost, fastHost            time.Duration

	errPct   float64            // mean |fast - full| / full simulated cycles
	exact    string             // every simulated result, compared across passes
	problems []string           // failed correctness checks
	layer    map[string]float64 // per-layer values measured by the workload
}

func (p *passStats) fullMIPS() float64 { return mips(p.fullInsts, p.fullHost) }
func (p *passStats) fastMIPS() float64 { return mips(p.fastInsts, p.fastHost) }

func mips(insts uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(insts) / d.Seconds() / 1e6
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: os-accel, app-sampled or serve-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the timed passes run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench/work", "scratch directory")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workloadDef, error) {
	switch name {
	case "os-accel":
		return newOSAccel(seed), nil
	case "app-sampled":
		return newAppSampled(seed), nil
	case "serve-sweep":
		return newServeSweep(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want os-accel, app-sampled or serve-sweep)", name)
}

// measure sets the workload up setupReps times, then runs passes until
// --seconds have elapsed. A traced run alternates untraced and traced passes,
// so tracing overhead and non-perturbation are both measured in one process.
func measure(w workloadDef, o options) (*result, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := w.setup(filepath.Join(dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	log := newSpanLog()
	var plain, traced []*passStats
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		doTrace := o.trace && i%2 == 1
		if time.Now().After(deadline) && len(plain) >= minPlainPasses &&
			(!o.trace || len(traced) >= minTracedPasses) && !doTrace {
			break
		}
		var tr *tracer
		if doTrace {
			tr = newTracer(log, i)
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		p, err := w.pass(filepath.Join(dir, fmt.Sprintf("pass%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		p.wall = time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.alloc = after.TotalAlloc - before.TotalAlloc
		fmt.Fprintf(os.Stderr, "pass %d traced=%t wall=%.3fs full=%.3f fast=%.3f MIPS\n",
			i, tr != nil, p.wall.Seconds(), p.fullMIPS(), p.fastMIPS())
		if tr != nil {
			tr.finish(p)
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	check := func(p *passStats, i int, kind string) {
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, msg := range p.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %s\n", kind, i, msg)
		}
		if p.exact != plain[0].exact {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: simulated results differ from untraced pass 0\n", kind, i)
		}
	}
	for i, p := range plain {
		check(p, i, "untraced")
	}
	for i, p := range traced {
		check(p, i, "traced")
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if !o.trace {
		vals := map[string]float64{
			"setup_s":       median(setups),
			"wall_s":        medianOf(plain, func(p *passStats) float64 { return p.wall.Seconds() }),
			"full_mips":     medianOf(plain, (*passStats).fullMIPS),
			"fast_mips":     medianOf(plain, (*passStats).fastMIPS),
			"cycle_err_pct": plain[0].errPct,
			"alloc_mb":      medianOf(plain, func(p *passStats) float64 { return float64(p.alloc) / (1 << 20) }),
			"max_rss_mb":    maxRSSMB(),
		}
		fill(res, endToEnd, vals)
		return res, nil
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		name := m.name
		vals[name] = medianOf(traced, func(p *passStats) float64 { return p.layer[name] })
	}
	vals["accounting.speedup_x"] = medianOf(plain, func(p *passStats) float64 {
		if p.fullMIPS() == 0 {
			return 0
		}
		return p.fastMIPS() / p.fullMIPS()
	})
	plainWall := medianOf(plain, func(p *passStats) float64 { return p.wall.Seconds() })
	tracedWall := medianOf(traced, func(p *passStats) float64 { return p.wall.Seconds() })
	vals["bench.trace_overhead_pct"] = 100 * (tracedWall - plainWall) / plainWall
	probed, err := w.probe(filepath.Join(dir, "probe"))
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range probed {
		vals[k] = v
	}
	vals["cpu.ooo_exec_ns"], vals["cache.access_ns"] = probeCPU(), probeCache()
	fill(res, perLayer, vals)

	spans := filepath.Join(o.workdir, "spans-"+o.workload+".jsonl")
	if err := log.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// fill copies vals into the result for every metric in ms, in order, so a
// metric missing from vals reads 0 rather than disappearing.
func fill(res *result, ms []metric, vals map[string]float64) {
	var b strings.Builder
	for _, m := range ms {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(&b, "  %-30s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []*passStats, f func(*passStats) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

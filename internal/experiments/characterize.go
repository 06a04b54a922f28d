package experiments

import (
	"fmt"
	"sort"

	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/workload"
)

// profilePairNeeds declares the two profiled full-system runs Figs 3-5 read
// (ab-rand and ab-seq); the underlying cache entries double as the fig1/fig8
// detailed baselines.
func profilePairNeeds(cfg Config) []RunKey {
	return []RunKey{
		cfg.benchKey("ab-rand", machine.FullSystem, 0),
		cfg.benchKey("ab-seq", machine.FullSystem, 0),
	}
}

// fig6Needs declares profiled full-system runs of every OS-intensive
// benchmark.
func fig6Needs(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range workload.OSIntensiveNames() {
		keys = append(keys, cfg.benchKey(name, machine.FullSystem, 0))
	}
	return keys
}

// Fig3 regenerates Figure 3: the average and range (avg ± std) of cycles and
// IPC per OS service, for ab-rand and ab-seq, services invoked more than once.
func Fig3(cfg Config) (*Result, error) {
	t := NewTable("service", "bench", "n", "cycles avg", "cycles ±std", "IPC avg", "IPC ±std")
	for _, bench := range []string{"ab-rand", "ab-seq"} {
		prof, err := profileRun(cfg, bench)
		if err != nil {
			return nil, err
		}
		for _, sp := range prof.Services() {
			if sp.N < 2 {
				continue
			}
			t.AddRowf(sp.Service.String(), bench, fmt.Sprint(sp.N),
				f1(sp.Cycles.Mean), f1(sp.Cycles.Std()),
				f3(sp.IPC.Mean), f3(sp.IPC.Std()))
		}
	}
	return &Result{Table: t}, nil
}

// Fig4 regenerates Figure 4: sys_read's execution time across invocations
// for ab-rand and ab-seq. The table summarizes the series (the full series is
// available programmatically via core.Profiler); the paper's observation is
// high invocation-to-invocation variation over a limited set of levels.
func Fig4(cfg Config) (*Result, error) {
	t := NewTable("bench", "invocations", "min cyc", "p25", "median", "p75", "max cyc", "distinct levels (1k-inst x 4k-cyc bins)")
	for _, bench := range []string{"ab-rand", "ab-seq"} {
		prof, err := profileRun(cfg, bench)
		if err != nil {
			return nil, err
		}
		sp := prof.Service(isa.Sys(isa.SysRead))
		if sp == nil {
			continue
		}
		cyc := make([]float64, len(sp.Series))
		for i, s := range sp.Series {
			cyc[i] = float64(s.Cycles)
		}
		mn, q1, md, q3, mx := quantiles(cyc)
		h := sp.Hist2D(1000, 4000)
		t.AddRowf(bench, fmt.Sprint(len(cyc)), f1(mn), f1(q1), f1(md), f1(q3), f1(mx),
			fmt.Sprint(h.NonEmpty()))
	}
	return &Result{Table: t, Notes: []string{
		"Use `fssim -bench ab-rand -trace -` to dump every service interval as CSV; its sys_read rows are the full per-invocation series.",
	}}, nil
}

// Fig5 regenerates Figure 5: the bubble histogram of sys_read behavior
// points over instruction bins (1000 insts) and cycle bins (4000 cycles).
// Each row is one non-empty bubble; the paper's observation is that few
// bins are occupied and, per instruction bin, cycles cluster narrowly.
func Fig5(cfg Config) (*Result, error) {
	t := NewTable("bench", "inst bin center", "cycle bin center", "occurrences")
	for _, bench := range []string{"ab-rand", "ab-seq"} {
		prof, err := profileRun(cfg, bench)
		if err != nil {
			return nil, err
		}
		sp := prof.Service(isa.Sys(isa.SysRead))
		if sp == nil {
			continue
		}
		cells := sp.Hist2D(1000, 4000).Cells()
		for _, c := range cells {
			t.AddRowf(bench, f1(c.X), f1(c.Y), fmt.Sprint(c.Count))
		}
	}
	return &Result{Table: t}, nil
}

// Fig6 regenerates Figure 6: average coefficient of variation of execution
// time and IPC across OS services, with and without scaled clustering, for
// the five OS-intensive benchmarks. The paper reports time CV dropping
// roughly 0.72 -> 0.15 (4.7x) and IPC CV 0.13 -> 0.08 on average.
func Fig6(cfg Config) (*Result, error) {
	t := NewTable("benchmark", "time CV non-clustered", "time CV clustered",
		"IPC CV non-clustered", "IPC CV clustered")
	var sums core.CVSummary
	n := 0
	for _, bench := range workload.OSIntensiveNames() {
		prof, err := profileRun(cfg, bench)
		if err != nil {
			return nil, err
		}
		cv := prof.CVs()
		t.AddRowf(bench, f3(cv.NonClusteredTime), f3(cv.ClusteredTime),
			f3(cv.NonClusteredIPC), f3(cv.ClusteredIPC))
		sums.NonClusteredTime += cv.NonClusteredTime
		sums.ClusteredTime += cv.ClusteredTime
		sums.NonClusteredIPC += cv.NonClusteredIPC
		sums.ClusteredIPC += cv.ClusteredIPC
		n++
	}
	t.AddRowf("average", f3(sums.NonClusteredTime/float64(n)), f3(sums.ClusteredTime/float64(n)),
		f3(sums.NonClusteredIPC/float64(n)), f3(sums.ClusteredIPC/float64(n)))
	return &Result{Table: t}, nil
}

func quantiles(xs []float64) (mn, q1, md, q3, mx float64) {
	if len(xs) == 0 {
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return s[0], q(0.25), q(0.5), q(0.75), s[len(s)-1]
}

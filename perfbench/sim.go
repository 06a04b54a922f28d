package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/workload"
)

// simWorkload simulates each benchmark twice per pass, Full then the fast
// path or the reverse, in an order drawn from the seed: interleaving the two
// modes lets host drift hit both.
type simWorkload struct {
	benches    []string
	scale      float64 // workload size of the timed passes
	setupScale float64 // workload size of the set-up's miniature pass
	seed       int64
	rng        *rand.Rand
	// fast attaches the fast path to opts and returns a function that adds
	// the run's fast-path counts to a pass's per-layer values.
	fast func(opts *workload.Options, seed int64) func(st machine.Stats, layer map[string]float64)
}

// newOSAccel is the five OS-intensive benchmarks, Full against Accelerated.
// The kernel model, the detailed OS path, the learner and pollution
// injection do almost all the work here and the sampler does none.
func newOSAccel(seed int64) *simWorkload {
	return &simWorkload{
		benches:    workload.OSIntensiveNames(),
		scale:      1,
		setupScale: 0.05,
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		fast: func(opts *workload.Options, _ int64) func(machine.Stats, map[string]float64) {
			acc := core.NewAccelerator(core.DefaultParams())
			opts.Machine.Mode = machine.Accelerated
			opts.Sink = acc
			return func(_ machine.Stats, l map[string]float64) {
				s := acc.Summary()
				l["core.learned"] += float64(s.Learned)
				l["core.predicted"] += float64(s.Predicted)
				l["core.clusters"] += float64(s.Clusters)
				l["core.relearns"] += float64(s.Relearns)
			}
		},
	}
}

// newAppSampled is art (a 2.5 MB working set, larger than the 1 MB L2) and
// gzip (448 KB, which fits), Full against Sampled with the default preset.
// Detailed app simulation and the sampler dominate; the accelerator is never
// attached. At scale 4 art's sampled error is about 3%.
func newAppSampled(seed int64) *simWorkload {
	return &simWorkload{
		benches:    []string{"art", "gzip"},
		scale:      4,
		setupScale: 0.25,
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		fast: func(opts *workload.Options, seed int64) func(machine.Stats, map[string]float64) {
			smp := sample.New(sample.DefaultSpec(), seed)
			opts.Sample = smp
			return func(st machine.Stats, l map[string]float64) {
				rep := smp.Report()
				l["sample.intervals"] += float64(rep.Intervals)
				l["sample.detailed"] += float64(rep.Detailed)
				l["sample.ci95_sum"] += 100 * rep.RelCI(st.Cycles)
				l["sample.runs"]++
			}
		},
	}
}

// setup runs every benchmark in both modes at a small size.
func (w *simWorkload) setup(string) error {
	for _, b := range w.benches {
		for _, fast := range []bool{false, true} {
			opts := w.options(w.setupScale)
			if fast {
				w.fast(&opts, w.seed)
			}
			if _, err := workload.Run(b, opts); err != nil {
				return fmt.Errorf("%s: %w", b, err)
			}
		}
	}
	return nil
}

func (w *simWorkload) options(scale float64) workload.Options {
	opts := workload.DefaultOptions()
	opts.Scale = scale
	opts.Machine.Seed = w.seed
	return opts
}

func (w *simWorkload) pass(_ string, tr *tracer) (*passStats, error) {
	p := &passStats{layer: map[string]float64{}}
	var exact strings.Builder
	var errSum float64
	for _, i := range w.rng.Perm(len(w.benches)) {
		b := w.benches[i]
		modes := []bool{false, true}
		if w.rng.Intn(2) == 1 {
			modes = []bool{true, false}
		}
		var cycles [2]uint64
		for _, fast := range modes {
			opts := w.options(w.scale)
			var counts func(machine.Stats, map[string]float64)
			if fast {
				counts = w.fast(&opts, w.seed)
			}
			start := time.Now()
			var res workload.Result
			var err error
			if tr != nil {
				res, err = tr.run(b, opts)
			} else {
				res, err = workload.Run(b, opts)
			}
			host := time.Since(start)
			p.ops++
			if err != nil {
				p.failed++
				p.problems = append(p.problems, fmt.Sprintf("%s fast=%t: %v", b, fast, err))
				continue
			}
			st := res.Stats
			appIntervals, _, appEmu := res.Machine.AppIntervalStats()
			if fast {
				p.fastInsts += st.Insts
				p.fastEmu += st.EmuInsts + appEmu
				p.fastHost += host
				counts(st, p.layer)
				cycles[1] = st.Cycles
			} else {
				p.fullInsts += st.Insts
				p.fullHost += host
				cycles[0] = st.Cycles
			}
			fmt.Fprintf(&exact, "%s fast=%t %+v\n", b, fast, st)
			l := p.layer
			l["machine.os_intervals"] += float64(st.Intervals)
			l["machine.os_emulated"] += float64(st.Emulated)
			l["machine.app_intervals"] += float64(appIntervals)
			l["machine.emu_insts"] += float64(st.EmuInsts + appEmu)
			l["cpu.sim_insts"] += float64(st.Insts)
			l["cpu.sim_cycles"] += float64(st.Cycles)
			l["cpu.br_mispreds"] += float64(st.BrMispreds)
			l["cache.l1i_misses"] += float64(st.Mem.L1I.Misses)
			l["cache.l1d_misses"] += float64(st.Mem.L1D.Misses)
			l["cache.l2_misses"] += float64(st.Mem.L2.Misses)
			l["memsys.dram_accesses"] += float64(st.DRAM)
		}
		if cycles[0] == 0 || cycles[1] == 0 {
			continue
		}
		e := 100 * math.Abs(float64(cycles[1])-float64(cycles[0])) / float64(cycles[0])
		if e > maxErrPct {
			p.problems = append(p.problems, fmt.Sprintf("%s: fast-path cycle error %.3f%% exceeds %.0f%%", b, e, maxErrPct))
		}
		errSum += e
	}
	p.errPct = errSum / float64(len(w.benches))
	p.exact = sortedLines(exact.String())
	l := p.layer
	if n := l["core.learned"] + l["core.predicted"]; n > 0 {
		l["core.coverage_pct"] = 100 * l["core.predicted"] / n
	}
	if l["sample.detailed"] > 0 {
		l["sample.reduction_x"] = l["sample.intervals"] / l["sample.detailed"]
	}
	if l["sample.runs"] > 0 {
		l["sample.ci95_pct"] = l["sample.ci95_sum"] / l["sample.runs"]
	}
	return p, nil
}

// sortedLines puts lines in a fixed order, so passes that ran the
// benchmarks in different orders compare equal.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// probe has nothing to add: every simulation layer is timed inside the passes.
func (w *simWorkload) probe(string) (map[string]float64, error) { return nil, nil }

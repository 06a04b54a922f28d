// Package fssim's benchmark harness: one testing.B benchmark per paper
// artifact (Figures 1-12, Tables 1-2), the DESIGN.md §9 ablations, and
// micro-benchmarks of the simulator substrate. Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches execute the corresponding experiment at a reduced
// scale and report the headline quantity as a custom metric; run
// `fsbench -exp all` for the full-scale paper-formatted tables.
package fssim_test

import (
	"context"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/cpu"
	"fssim/internal/experiments"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/memsys"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/server"
	"fssim/internal/workload"
)

const benchScale = 0.5 // keep the full -bench=. sweep to a few minutes

func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// cell parses a numeric table cell ("12.3%", "4.5x", "1.234").
func cell(s string) float64 {
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(s), "%"), "x")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkFig1 regenerates Figure 1 and reports the worst-case
// full-system/app-only execution-time ratio across the OS-intensive set.
func BenchmarkFig1(b *testing.B) {
	res := runExperiment(b, "fig1")
	worst := 0.0
	for _, row := range res.Table.Rows[:5] {
		if r := cell(row[2]); r > worst {
			worst = r
		}
	}
	b.ReportMetric(worst, "worst-time-ratio")
}

// BenchmarkFig2 regenerates Figure 2 and reports the largest full-system
// speedup from doubling the L2 (the effect app-only simulation misses).
func BenchmarkFig2(b *testing.B) {
	res := runExperiment(b, "fig2")
	best := 0.0
	for _, row := range res.Table.Rows[:5] {
		if r := cell(row[2]); r > best {
			best = r
		}
	}
	b.ReportMetric(best, "max-L2-speedup")
}

// BenchmarkFig3 regenerates the per-service characterization.
func BenchmarkFig3(b *testing.B) {
	res := runExperiment(b, "fig3")
	b.ReportMetric(float64(len(res.Table.Rows)), "service-rows")
}

// BenchmarkFig4 regenerates the sys_read invocation series summary.
func BenchmarkFig4(b *testing.B) {
	res := runExperiment(b, "fig4")
	b.ReportMetric(cell(res.Table.Rows[0][7]), "behavior-levels")
}

// BenchmarkFig5 regenerates the bubble histogram.
func BenchmarkFig5(b *testing.B) {
	res := runExperiment(b, "fig5")
	b.ReportMetric(float64(len(res.Table.Rows)), "occupied-bins")
}

// BenchmarkFig6 regenerates the CV comparison and reports the average
// execution-time CV reduction factor from scaled clustering.
func BenchmarkFig6(b *testing.B) {
	res := runExperiment(b, "fig6")
	avg := res.Table.Rows[len(res.Table.Rows)-1]
	if c := cell(avg[2]); c > 0 {
		b.ReportMetric(cell(avg[1])/c, "time-CV-reduction")
	}
}

// BenchmarkFig7 regenerates the learning-window curve.
func BenchmarkFig7(b *testing.B) {
	res := runExperiment(b, "fig7")
	for _, row := range res.Table.Rows {
		if row[0] == "0.030" {
			b.ReportMetric(cell(row[1]), "window@pmin3%")
		}
	}
}

// BenchmarkFig8 regenerates the headline accuracy result and reports the
// average absolute execution-time prediction error in percent
// (paper: 3.2%).
func BenchmarkFig8(b *testing.B) {
	res := runExperiment(b, "fig8")
	sum := 0.0
	for _, row := range res.Table.Rows {
		sum += cell(row[7])
	}
	b.ReportMetric(sum/float64(len(res.Table.Rows)), "avg-err-%")
}

// BenchmarkFig9 regenerates the miss-rate comparison and reports the worst
// absolute miss-rate difference in percentage points.
func BenchmarkFig9(b *testing.B) {
	res := runExperiment(b, "fig9")
	worst := 0.0
	for _, row := range res.Table.Rows {
		if d := cell(row[7]); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-missrate-diff-pp")
}

// BenchmarkFig10 regenerates the three-way L2 study and reports how closely
// the accelerated simulator tracks the full-system speedup (ratio of
// averages; 1.0 = perfect).
func BenchmarkFig10(b *testing.B) {
	res := runExperiment(b, "fig10")
	var full, pred float64
	for _, row := range res.Table.Rows {
		full += cell(row[2])
		pred += cell(row[3])
	}
	b.ReportMetric(pred/full, "pred/full-speedup")
}

// BenchmarkFig11 regenerates the strategy comparison and reports the
// Statistical strategy's average coverage (paper: 89%).
func BenchmarkFig11(b *testing.B) {
	res := runExperiment(b, "fig11")
	for _, row := range res.Table.Rows {
		if row[0] == "average" && row[1] == "Statistical" {
			b.ReportMetric(cell(row[2]), "statistical-coverage-%")
		}
	}
}

// BenchmarkFig12 regenerates the L2-size error sweep and reports the average
// error at 4MB.
func BenchmarkFig12(b *testing.B) {
	res := runExperiment(b, "fig12")
	avg := res.Table.Rows[len(res.Table.Rows)-1]
	b.ReportMetric(cell(avg[3]), "avg-err-4MB-%")
}

// BenchmarkTable1 measures the simulation-mode slowdown ratios.
func BenchmarkTable1(b *testing.B) {
	res := runExperiment(b, "tab1")
	last := res.Table.Rows[len(res.Table.Rows)-1]
	b.ReportMetric(cell(last[2]), "ooo-cache-slowdown")
}

// BenchmarkTable2 computes the Eq-10 speedup estimates and reports the
// geometric mean at the paper's R=133 (paper: 4.9x).
func BenchmarkTable2(b *testing.B) {
	res := runExperiment(b, "tab2")
	g := res.Table.Rows[len(res.Table.Rows)-1]
	b.ReportMetric(cell(g[3]), "gmean-speedup")
}

// --- Ablations (DESIGN.md §9) ----------------------------------------------

func accelError(b *testing.B, bench string, tweakM func(*machine.Config),
	tweakP func(*core.Params)) (errFrac, coverage float64) {
	return accelErrorAt(b, bench, benchScale, tweakM, tweakP)
}

// accelErrorAt runs the full-vs-accelerated comparison at an explicit scale;
// the injection ablations use full scale, where per-service instance counts
// are large enough for the effect sizes to dominate sampling noise.
func accelErrorAt(b *testing.B, bench string, scale float64, tweakM func(*machine.Config),
	tweakP func(*core.Params)) (errFrac, coverage float64) {
	b.Helper()
	opts := workload.DefaultOptions()
	opts.Scale = scale
	full, err := workload.Run(bench, opts)
	if err != nil {
		b.Fatal(err)
	}
	o := workload.DefaultOptions()
	o.Scale = scale
	o.Machine.Mode = machine.Accelerated
	if tweakM != nil {
		tweakM(&o.Machine)
	}
	params := core.DefaultParams()
	if tweakP != nil {
		tweakP(&params)
	}
	acc := core.NewAccelerator(params)
	o.Sink = acc
	res, err := workload.Run(bench, o)
	if err != nil {
		b.Fatal(err)
	}
	e := math.Abs(float64(res.Stats.Cycles)-float64(full.Stats.Cycles)) /
		float64(full.Stats.Cycles)
	return e, acc.Summary().Coverage()
}

// BenchmarkAblationClustering compares the paper's scaled (±5%) clusters
// against fixed ±150-instruction bins (paper §4.2's rejected alternative).
func BenchmarkAblationClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scaledErr, scaledCov := accelError(b, "ab-seq", nil, nil)
		fixedErr, fixedCov := accelError(b, "ab-seq", nil,
			func(p *core.Params) { p.FixedRange = 150 })
		b.ReportMetric(100*scaledErr, "scaled-err-%")
		b.ReportMetric(100*fixedErr, "fixed-err-%")
		b.ReportMetric(100*scaledCov, "scaled-cov-%")
		b.ReportMetric(100*fixedCov, "fixed-cov-%")
	}
}

// BenchmarkAblationWarmup compares delayed initial learning (skip 5, the
// paper's §4.4 cold-start guard) against learning from the first invocation.
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		onErr, _ := accelError(b, "du", nil, nil)
		offErr, _ := accelError(b, "du", nil, func(p *core.Params) { p.WarmupSkip = 0 })
		b.ReportMetric(100*onErr, "skip5-err-%")
		b.ReportMetric(100*offErr, "skip0-err-%")
	}
}

// BenchmarkAblationPollution compares accuracy with and without the
// prediction side-effect models: cache pollution injection (paper §4.5) and
// bus-occupancy injection (this implementation's extension).
func BenchmarkAblationPollution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		onErr, _ := accelErrorAt(b, "ab-rand", 1.0, nil, nil)
		noPollErr, _ := accelErrorAt(b, "ab-rand", 1.0,
			func(m *machine.Config) { m.NoPollution = true }, nil)
		noBusErr, _ := accelErrorAt(b, "ab-rand", 1.0,
			func(m *machine.Config) { m.NoBusInjection = true }, nil)
		b.ReportMetric(100*onErr, "both-on-err-%")
		b.ReportMetric(100*noPollErr, "no-pollution-err-%")
		b.ReportMetric(100*noBusErr, "no-bus-err-%")
	}
}

// BenchmarkAblationWindow sweeps the initial learning window around the
// statically derived ~100 (paper Fig 7 / §4.3), trading coverage for
// accuracy.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{25, 50, 100, 200} {
		w := w
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, cov := accelError(b, "ab-rand", nil,
					func(p *core.Params) { p.LearnWindow = w })
				b.ReportMetric(100*e, "err-%")
				b.ReportMetric(100*cov, "coverage-%")
			}
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func instStream() []isa.Inst {
	s := make([]isa.Inst, 0, 1024)
	pc := uint64(0x1000)
	for i := 0; len(s) < cap(s); i++ {
		switch i % 4 {
		case 0:
			s = append(s, isa.Inst{Op: isa.ALU, PC: pc, Dep: 4})
		case 1:
			s = append(s, isa.Inst{Op: isa.LOAD, PC: pc + 4,
				Addr: 0x10_0000 + uint64(i%4096)*64, Size: 8, Dep: 1})
		case 2:
			s = append(s, isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1})
		default:
			s = append(s, isa.Inst{Op: isa.BRANCH, PC: pc + 12, Taken: true, Target: pc})
		}
	}
	return s
}

// BenchmarkOOOCore measures the detailed out-of-order model's host cost per
// simulated instruction.
func BenchmarkOOOCore(b *testing.B) {
	core := cpu.NewOOO(cpu.DefaultConfig(), memsys.New(memsys.DefaultConfig()))
	s := instStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Exec(&s[i%len(s)], cache.OwnerApp)
	}
}

// BenchmarkInOrderCore measures the in-order model's host cost.
func BenchmarkInOrderCore(b *testing.B) {
	core := cpu.NewInOrder(cpu.DefaultConfig(), memsys.New(memsys.DefaultConfig()))
	s := instStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Exec(&s[i%len(s)], cache.OwnerApp)
	}
}

// BenchmarkCacheAccess measures the raw cache model on a 1 MB 8-way cache:
// sequential 8-byte hits over a resident 256 KB range (seven of every eight
// hit the set's most recent line), sequential line misses cycling through
// 4 MB (LRU evicts every line before its reuse), and random misses over
// 256 MB.
func BenchmarkCacheAccess(b *testing.B) {
	newCache := func() *cache.Cache {
		return cache.New(cache.Config{Name: "b", Size: 1 << 20, Assoc: 8, BlockSize: 64})
	}
	b.Run("hit", func(b *testing.B) {
		c := newCache()
		for i := 0; i < 4096; i++ {
			c.Access(uint64(i)*64, 1, false, cache.OwnerApp)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%32768)*8, 1, false, cache.OwnerApp)
		}
	})
	b.Run("miss-seq", func(b *testing.B) {
		c := newCache()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%65536)*64, 1, false, cache.OwnerApp)
		}
	})
	b.Run("miss-rand", func(b *testing.B) {
		c := newCache()
		x := uint64(88172645463325252)
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.Access(x%(256<<20), 1, false, cache.OwnerApp)
		}
	})
}

// emulateAll fast-forwards every OS service interval at CPI 1.
type emulateAll struct{}

func (emulateAll) OnServiceStart(isa.ServiceID) (bool, float64) { return false, 1 }
func (emulateAll) OnServiceEnd(isa.ServiceID, machine.Signature, *machine.Measurement) *machine.Prediction {
	return nil
}

// BenchmarkFastForwardEmit measures the host cost of one fast-forwarded
// instruction (ns/op is per instruction) for each counted Emitter helper
// and for single Load/Store emits, inside an emulated OS interval with no
// pending events — the machine-side floor of emulation mode's cost.
func BenchmarkFastForwardEmit(b *testing.B) {
	const lines = 256 // loop helpers: iterations per call
	nodes := make([]uint64, lines)
	for i := range nodes {
		nodes[i] = 0x200000 + uint64(i)*4096
	}
	// Each case emits one call and returns how many instructions it was.
	cases := []struct {
		name string
		call func(e machine.Emitter) int
	}{
		{"Ops", func(e machine.Emitter) int { e.Ops(1024); return 1024 }},
		{"Chain", func(e machine.Emitter) int { e.Chain(1024); return 1024 }},
		{"Mix", func(e machine.Emitter) int { e.Mix(1024); return 1024 }},
		{"FOps", func(e machine.Emitter) int { e.FOps(1024); return 1024 }},
		{"CopyLines", func(e machine.Emitter) int { e.CopyLines(0x100000, 0x180000, lines); return 4 * lines }},
		{"ScanLines", func(e machine.Emitter) int { e.ScanLines(0x100000, lines, 64); return 4 * lines }},
		{"WriteLines", func(e machine.Emitter) int { e.WriteLines(0x100000, lines, 64); return 3 * lines }},
		{"ChaseList", func(e machine.Emitter) int { e.ChaseList(nodes); return 3 * lines }},
		{"Load", func(e machine.Emitter) int { e.Load(0x100000, 8, 0); return 1 }},
		{"Store", func(e machine.Emitter) int { e.Store(0x100000, 8); return 1 }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Mode = machine.Accelerated
			m := machine.New(cfg)
			m.SetSink(emulateAll{})
			m.KEnter(isa.Sys(isa.SysRead))
			e := m.Emitter()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				n += c.call(e)
			}
		})
	}
}

// BenchmarkFullSystemSimulation measures end-to-end detailed simulation
// throughput (simulated instructions per host second) on the web workload.
func BenchmarkFullSystemSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := workload.DefaultOptions()
		opts.Scale = 0.25
		res, err := workload.Run("ab-rand", opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Insts), "sim-insts/op")
	}
}

// BenchmarkAcceleratedSimulation measures the same workload under the
// paper's scheme, for a direct wall-clock speedup comparison.
func BenchmarkAcceleratedSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := workload.DefaultOptions()
		opts.Scale = 0.25
		opts.Machine.Mode = machine.Accelerated
		opts.Sink = core.NewAccelerator(core.DefaultParams())
		res, err := workload.Run("ab-rand", opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Insts), "sim-insts/op")
	}
}

// BenchmarkSampledVsFullRun measures the stratified-sampling fast path
// against the full run it replaces: the timed loop is the sampled run; the
// full-detail baseline executes once outside it. The custom metrics report
// the estimator's quality — app-side detailed-interval reduction, the
// extrapolated-cycles error against ground truth, and the 95% CI half-width
// — alongside the wall-clock ratio the ns/op column implies.
func BenchmarkSampledVsFullRun(b *testing.B) {
	full := func() workload.Result {
		opts := workload.DefaultOptions()
		opts.Scale = 0.25
		res, err := workload.Run("ab-rand", opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}()
	spec, err := sample.ParseSpec("default")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := workload.DefaultOptions()
		opts.Scale = 0.25
		smp := sample.New(spec, opts.Machine.Seed)
		opts.Sample = smp
		res, err := workload.Run("ab-rand", opts)
		if err != nil {
			b.Fatal(err)
		}
		rep := smp.Report()
		errPct := 100 * (float64(res.Stats.Cycles) - float64(full.Stats.Cycles)) /
			float64(full.Stats.Cycles)
		b.ReportMetric(rep.Reduction(), "app-detail-reduction")
		b.ReportMetric(math.Abs(errPct), "cycles-err-%")
		b.ReportMetric(100*rep.RelCI(res.Stats.Cycles), "ci95-%")
	}
}

// BenchmarkExtensionMixSignature evaluates the paper's named future-work
// direction (§3): extending the signature from the instruction count alone
// to the emulation-observable instruction mix (count + loads + stores +
// branches). Finer signatures can separate aliased behavior points at some
// cost in coverage.
func BenchmarkExtensionMixSignature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plainErr, plainCov := accelError(b, "ab-seq", nil, nil)
		mixErr, mixCov := accelError(b, "ab-seq", nil,
			func(p *core.Params) { p.MixSignature = true })
		b.ReportMetric(100*plainErr, "insts-sig-err-%")
		b.ReportMetric(100*mixErr, "mix-sig-err-%")
		b.ReportMetric(100*plainCov, "insts-sig-cov-%")
		b.ReportMetric(100*mixCov, "mix-sig-cov-%")
	}
}

// BenchmarkExtensionTLB measures the effect of enabling TLB modeling (not
// part of the paper's Simics configuration): page-walk latencies on TLB
// misses plus flushes at address-space switches.
func BenchmarkExtensionTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOnce(b, "find-od", func(m *machine.Config) {})
		tlb := runOnce(b, "find-od", func(m *machine.Config) {
			m.Mem = m.Mem.WithTLB()
		})
		b.ReportMetric(float64(tlb.Cycles)/float64(base.Cycles), "tlb-slowdown")
	}
}

// BenchmarkExtensionPrefetch measures the L2 next-line prefetcher on the
// streaming-heavy swim kernel.
func BenchmarkExtensionPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOnce(b, "swim", func(m *machine.Config) {})
		pf := runOnce(b, "swim", func(m *machine.Config) {
			m.Mem = m.Mem.WithPrefetch()
		})
		b.ReportMetric(float64(base.Cycles)/float64(pf.Cycles), "prefetch-speedup")
	}
}

// BenchmarkServerRunRequest measures the serving front-end's per-request
// overhead on the memo-cache hit path (admission, singleflight lookup, JSON
// response) — the simulation itself runs once, outside the timed loop. This
// is the latency floor a warm fssimd adds over the raw scheduler.
func BenchmarkServerRunRequest(b *testing.B) {
	srv := server.New(server.Config{Scale: benchScale})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := server.NewClient(hs.URL)
	req := server.RunRequest{Benchmark: "gzip", Mode: "app", Seed: 1}
	ctx := context.Background()
	if _, err := c.Run(ctx, req); err != nil { // warm the memo cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cache != "hit" {
			b.Fatalf("cache status %q, want hit", res.Cache)
		}
	}
}

func runOnce(b *testing.B, bench string, tweak func(*machine.Config)) machine.Stats {
	b.Helper()
	opts := workload.DefaultOptions()
	opts.Scale = benchScale
	tweak(&opts.Machine)
	res, err := workload.Run(bench, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats
}

// benchSnapshot learns a PLT on one cold accelerated ab-seq run and wraps
// the exported state as a store snapshot — the input to the persistence
// benches below.
func benchSnapshot(b *testing.B) *pltstore.Snapshot {
	b.Helper()
	opts := workload.DefaultOptions()
	opts.Scale = benchScale
	opts.Machine.Mode = machine.Accelerated
	acc := core.NewAccelerator(core.DefaultParams())
	opts.Sink = acc
	res, err := workload.Run("ab-seq", opts)
	if err != nil {
		b.Fatal(err)
	}
	learn := pltstore.LearnHash("ab-seq", opts.Machine, core.DefaultParams(), benchScale, "", "")
	return &pltstore.Snapshot{
		LearnHash:  learn,
		ReplayHash: pltstore.ReplayHash(learn, "bench:ab-seq", opts.Machine.Seed, 0),
		Benchmark:  "ab-seq",
		Key:        "bench:ab-seq",
		Stats:      res.Stats,
		State:      acc.Export(),
	}
}

// BenchmarkSnapshotSave measures persisting one learned PLT snapshot:
// validate, encode (with checksum), atomic temp-file + rename write.
func BenchmarkSnapshotSave(b *testing.B) {
	snap := benchSnapshot(b)
	st := pltstore.Open(b.TempDir())
	b.SetBytes(int64(len(pltstore.Encode(snap))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures the warm-start read path: file read,
// checksum verify, strict decode, semantic validation.
func BenchmarkSnapshotLoad(b *testing.B) {
	snap := benchSnapshot(b)
	st := pltstore.Open(b.TempDir())
	if err := st.Save(snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pltstore.Encode(snap))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Load("ab-seq", snap.LearnHash); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmVsColdSimulation compares an accelerated run that imports a
// persisted PLT before simulating against the cold run that learns from
// scratch: the detailed-interval counts quantify the work a warm start
// skips, the per-op time is the warm run itself.
func BenchmarkWarmVsColdSimulation(b *testing.B) {
	snap := benchSnapshot(b)
	coldDetailed := snap.Stats.Intervals - snap.Stats.Emulated
	for i := 0; i < b.N; i++ {
		acc := core.NewAccelerator(core.DefaultParams())
		if err := acc.Import(snap.State); err != nil {
			b.Fatal(err)
		}
		opts := workload.DefaultOptions()
		opts.Scale = benchScale
		opts.Machine.Mode = machine.Accelerated
		opts.Sink = acc
		res, err := workload.Run("ab-seq", opts)
		if err != nil {
			b.Fatal(err)
		}
		warmDetailed := res.Stats.Intervals - res.Stats.Emulated
		b.ReportMetric(float64(coldDetailed), "cold-detailed")
		b.ReportMetric(float64(warmDetailed), "warm-detailed")
		b.ReportMetric(100*res.Stats.Coverage(), "warm-cov-%")
	}
}

// BenchmarkTransferVsColdSweep runs the L2 design-space sweep experiment —
// every eligible point warm-started from the in-sweep donor and paired with
// a cold twin, the out-of-range point rejected — and reports how much
// detailed simulation the cross-config transfers skipped.
func BenchmarkTransferVsColdSweep(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale
	for i := 0; i < b.N; i++ {
		s := experiments.NewScheduler(cfg)
		res, err := s.Run("sweep")
		if err != nil {
			b.Fatal(err)
		}
		var cold, xfer float64
		for _, line := range strings.Split(res.StableRender(), "\n") {
			f := strings.Fields(line)
			if len(f) != 9 || f[8] != "transferred" {
				continue
			}
			cold += cell(f[4])
			xfer += cell(f[5])
		}
		if xfer == 0 {
			b.Fatal("sweep table has no transferred rows")
		}
		st := s.Stats()
		b.ReportMetric(cold, "cold-detailed")
		b.ReportMetric(xfer, "transfer-detailed")
		b.ReportMetric(cold/xfer, "detail-cut-x")
		b.ReportMetric(float64(st.TransferHits), "imports")
		b.ReportMetric(float64(st.TransferRejected), "rejected")
	}
}

// Command fssim runs a single benchmark on the simulated full-system
// platform and prints a performance report.
//
// Usage:
//
//	fssim -bench ab-rand                  # detailed full-system simulation
//	fssim -bench ab-rand -mode accel      # the paper's accelerated scheme
//	fssim -bench du -mode apponly         # application-only baseline
//	fssim -bench iperf -l2 2097152        # 2MB L2
//	fssim -bench ab-rand -sample default  # stratified app-interval sampling
//	fssim -bench ab-rand -mode accel -warm-dir warm   # persist + warm-start the PLT
//	fssim -bench ab-rand -mode accel -warm-dir warm -l2 2097152 -transfer
//	                                      # no exact snapshot? import the nearest
//	                                      # eligible neighbor config's PLT instead
//	fssim -list                           # available benchmarks
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

func main() {
	bench := flag.String("bench", "ab-rand", "benchmark name")
	mode := flag.String("mode", "full", "simulation mode: full | app (apponly) | accel")
	strategy := flag.String("strategy", "statistical", "re-learning strategy for accel mode: statistical | best-match (bestmatch) | eager | delayed")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	l2 := flag.Int("l2", 0, "L2 size in bytes (0 = default 1MB)")
	seed := flag.Int64("seed", 1, "simulation seed")
	inorder := flag.Bool("inorder", false, "use the in-order core model")
	nocache := flag.Bool("nocache", false, "disable the cache models (ideal memory)")
	services := flag.Bool("services", false, "print the per-service report (accel mode)")
	trace := flag.String("trace", "", "write every OS service interval as CSV to this file ('-' = stdout)")
	tlb := flag.Bool("tlb", false, "enable TLB modeling (64-entry I/D TLBs, 30-cycle walks)")
	prefetch := flag.Bool("prefetch", false, "enable the L2 next-line prefetcher")
	warmDir := flag.String("warm-dir", "", "accel mode: import a persisted PLT snapshot from this directory before simulating, and persist the learned table after (empty = off)")
	transferOn := flag.Bool("transfer", false, "accel mode with -warm-dir: when no exact snapshot exists, warm-start the PLT from the nearest transfer-eligible donor configuration instead")
	sampleSpec := flag.String("sample", "", "stratified app-interval sampling spec: a preset ("+strings.Join(sample.PresetNames(), ", ")+") or key=value list (empty = every app interval detailed)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, name := range workload.Names() {
			b, _ := workload.Lookup(name)
			kind := "compute "
			if b.OSIntensive {
				kind = "OS-heavy"
			}
			fmt.Printf("%-8s %s  %s\n", name, kind, b.Description)
		}
		return
	}

	opts := workload.DefaultOptions()
	opts.Scale = *scale
	opts.Machine.Seed = *seed
	if *l2 > 0 {
		opts.Machine.Mem = opts.Machine.Mem.WithL2Size(*l2)
	}
	if *inorder {
		opts.Machine.Core = machine.CoreInOrder
	}
	if *nocache {
		opts.Machine.WithCaches = false
	}
	if *tlb {
		opts.Machine.Mem = opts.Machine.Mem.WithTLB()
	}
	if *prefetch {
		opts.Machine.Mem = opts.Machine.Mem.WithPrefetch()
	}
	var traceW *csv.Writer
	if *trace != "" {
		out := os.Stdout
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			out = f
		}
		traceW = csv.NewWriter(out)
		defer traceW.Flush()
		traceW.Write([]string{"service", "insts", "loads", "stores",
			"branches", "cycles", "emulated", "l1d_misses", "l2_misses"})
		opts.Observer = func(r machine.IntervalRecord) {
			row := []string{
				r.Service.String(),
				strconv.FormatUint(r.Insts, 10),
				strconv.FormatUint(r.Sig.Loads, 10),
				strconv.FormatUint(r.Sig.Stores, 10),
				strconv.FormatUint(r.Sig.Branches, 10),
				strconv.FormatUint(r.Cycles, 10),
				strconv.FormatBool(r.Emulated),
				"", "",
			}
			if r.Meas != nil {
				row[7] = strconv.FormatUint(r.Meas.L1D.Misses, 10)
				row[8] = strconv.FormatUint(r.Meas.L2.Misses, 10)
			}
			traceW.Write(row)
		}
	}
	var smp *sample.Sampler
	if *sampleSpec != "" {
		spec, err := sample.ParseSpec(*sampleSpec)
		if err != nil {
			fail("%v", err)
		}
		smp = sample.New(spec, opts.Machine.Seed)
		opts.Sample = smp
	}
	simMode, err := machine.ParseMode(*mode)
	if err != nil {
		fail("%v", err)
	}
	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		fail("%v", err)
	}
	opts.Machine.Mode = simMode
	var acc *core.Accelerator
	if simMode == machine.Accelerated {
		params := core.DefaultParams()
		params.Strategy = strat
		acc = core.NewAccelerator(params)
		opts.Sink = acc
	}

	// Warm start: import a compatible persisted PLT before simulating; a
	// stale, mismatched or corrupt snapshot silently stays cold. With
	// -transfer, a cold start first tries the nearest eligible donor from a
	// *neighbor* configuration, rescaled into low-confidence priors; an
	// ineligible or missing donor is reported and the run stays cold — a
	// transfer is never silent.
	var store *pltstore.Store
	var params core.Params
	warmed := false
	var prov *transfer.Provenance
	if acc != nil && *warmDir != "" {
		store = pltstore.Open(*warmDir)
		params = acc.Export().Params
		learnHash := pltstore.LearnHash(*bench, opts.Machine, params, opts.Scale, "", "")
		if snap, err := store.Load(*bench, learnHash); err == nil {
			warmed = acc.Import(snap.State) == nil
		}
		if !warmed && *transferOn {
			family := transfer.FamilyHash(*bench, opts.Machine, params, opts.Scale, "")
			recip := transfer.FromConfig(opts.Machine)
			if donor, err := pltstore.Nearest(store.Donors(), family, recip); err == nil {
				if prior, p, err := pltstore.DonorPrior(donor, recip, params); err == nil && acc.Import(prior) == nil {
					prov = p
				}
			}
			if prov == nil {
				fmt.Fprintf(os.Stderr, "fssim: transfer: no eligible donor in %s; starting cold\n", *warmDir)
			}
		}
	}

	res, err := workload.Run(*bench, opts)
	if err != nil {
		fail("%v", err)
	}
	if store != nil {
		// Transferred tables save under a distinct learn address and carry the
		// TransferHash trailer, so they never overwrite — or later pose as —
		// the cold-learned table of the same configuration (transferred
		// snapshots are not donor-eligible: priors must not chain).
		runKey := "fssim:" + *bench
		directive, xferHash := "", uint64(0)
		if prov != nil {
			directive, xferHash = "store", prov.Hash
		}
		learnHash := pltstore.LearnHash(*bench, opts.Machine, params, opts.Scale, "", directive)
		snap := &pltstore.Snapshot{
			LearnHash:    learnHash,
			ReplayHash:   pltstore.ReplayHash(learnHash, runKey, opts.Machine.Seed, xferHash),
			Benchmark:    *bench,
			Key:          runKey,
			Family:       transfer.FamilyHash(*bench, opts.Machine, params, opts.Scale, ""),
			TransferHash: xferHash,
			Coords:       transfer.FromConfig(opts.Machine),
			Stats:        res.Stats,
			State:        acc.Export(),
		}
		if err := store.Save(snap); err != nil {
			fmt.Fprintf(os.Stderr, "fssim: plt snapshot not saved: %v\n", err)
		}
	}
	host := res.Wall
	st := res.Stats

	fmt.Printf("benchmark        %s (%s mode, scale %.2f)\n", *bench, opts.Machine.Mode, *scale)
	fmt.Printf("instructions     %d (user %d, OS %d = %.1f%%)\n",
		st.Insts, st.UserInsts, st.OSInsts, 100*float64(st.OSInsts)/float64(st.Insts))
	fmt.Printf("cycles           %d (IPC %.3f)\n", st.Cycles, st.IPC())
	fmt.Printf("OS intervals     %d (context switches %d, timer ticks %d)\n",
		st.Intervals, res.Kernel.ContextSwitches(), res.Kernel.Ticks())
	if opts.Machine.WithCaches {
		l1i, l1d, l2r := st.MissRates()
		fmt.Printf("miss rates       L1I %.3f%%  L1D %.3f%%  L2 %.3f%%  (DRAM %d)\n",
			100*l1i, 100*l1d, 100*l2r, st.DRAM)
	}
	fmt.Printf("branches         %d lookups, %.2f%% mispredicted\n",
		st.BrLookups, 100*float64(st.BrMispreds)/float64(max64(st.BrLookups, 1)))
	if acc != nil {
		sum := acc.Summary()
		warmNote := ""
		if warmed {
			warmNote = " (warm-started)"
		}
		fmt.Printf("acceleration     coverage %.1f%% of %d invocations; %d clusters over %d services; %d re-learns; %d outliers%s\n",
			100*sum.Coverage(), sum.Learned+sum.Predicted, sum.Clusters, sum.Services,
			sum.Relearns, sum.Outliers, warmNote)
		fmt.Printf("fast-forwarded   %d of %d instructions (%.1f%%)\n",
			st.EmuInsts, st.Insts, 100*float64(st.EmuInsts)/float64(st.Insts))
		if prov != nil {
			fmt.Printf("plt              %s (distance %.1f)\n", prov, prov.Distance)
		}
		if *services {
			fmt.Println("\nservice          seen   clusters  predicted  outliers  relearns")
			for _, row := range acc.Report() {
				fmt.Printf("%-16s %-6d %-9d %-10d %-9d %d\n",
					row.Service, row.Seen, row.Clusters, row.Predicted, row.Outliers, row.Relearns)
			}
		}
	}
	if smp != nil {
		rep := smp.Report()
		fmt.Printf("sampling         %s\n", rep.Summary(st.Cycles))
	}
	fmt.Printf("host time        %.2fs (%.0f ns/inst)\n",
		host.Seconds(), float64(host.Nanoseconds())/float64(st.Insts))
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fssim: "+format+"\n", args...)
	os.Exit(1)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

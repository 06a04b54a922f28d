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
//	fssim -bench ab-rand -mode accel -warm-dir warm   # persist the PLT; replay on repeat
//	fssim -bench ab-rand -mode accel -warm-dir warm -l2 2097152 -transfer
//	                                      # import the nearest eligible donor
//	                                      # config's PLT, then simulate
//	fssim -list                           # available benchmarks
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fssim"
	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/sample"
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
	warmDir := flag.String("warm-dir", "", "accel mode: replay the run from this PLT snapshot directory when it recorded the same run, else simulate and persist the learned table (empty = off; sampled runs never replay or persist)")
	transferOn := flag.Bool("transfer", false, "accel mode with -warm-dir: warm-start the PLT from the nearest transfer-eligible donor table in the store (the same config at another seed, or a neighbor) and simulate")
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

	o := fssim.Options{
		Scale:    *scale,
		L2Size:   *l2,
		Seed:     *seed,
		InOrder:  *inorder,
		NoCaches: *nocache,
		TLB:      *tlb,
		Prefetch: *prefetch,
		WarmDir:  *warmDir,
		Transfer: *transferOn,
	}
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
		traceW := csv.NewWriter(out)
		defer traceW.Flush()
		traceW.Write([]string{"service", "insts", "loads", "stores",
			"branches", "cycles", "emulated", "l1d_misses", "l2_misses"})
		o.Observer = func(r fssim.IntervalRecord) {
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
	var err error
	if o.Mode, err = machine.ParseMode(*mode); err != nil {
		fail("%v", err)
	}
	if o.Strategy, err = core.ParseStrategy(*strategy); err != nil {
		fail("%v", err)
	}
	if *sampleSpec != "" {
		if o.Sample, err = fssim.ParseSampleSpec(*sampleSpec); err != nil {
			fail("%v", err)
		}
	}

	start := time.Now()
	rep, err := fssim.RunBenchmark(*bench, o)
	host := time.Since(start)
	if err != nil {
		fail("%v", err)
	}
	// A transfer is never silent: an ineligible or missing donor is reported
	// and the run stays cold.
	if rep.Accel != nil && *warmDir != "" && *transferOn && !rep.Replayed && rep.Transfer == nil {
		fmt.Fprintf(os.Stderr, "fssim: transfer: no eligible donor in %s; starting cold\n", *warmDir)
	}
	if rep.SaveErr != nil {
		fmt.Fprintf(os.Stderr, "fssim: plt snapshot not saved: %v\n", rep.SaveErr)
	}
	st := rep.Stats

	fmt.Printf("benchmark        %s (%s mode, scale %.2f)\n", *bench, o.Mode, *scale)
	fmt.Printf("instructions     %d (user %d, OS %d = %.1f%%)\n",
		st.Insts, st.UserInsts, st.OSInsts, 100*float64(st.OSInsts)/float64(st.Insts))
	fmt.Printf("cycles           %d (IPC %.3f)\n", st.Cycles, st.IPC())
	kernelNote := "" // a replay ran no kernel to count
	if !rep.Replayed {
		kernelNote = fmt.Sprintf(" (context switches %d, timer ticks %d)", rep.Kernel.ContextSwitches(), rep.Kernel.Ticks())
	}
	fmt.Printf("OS intervals     %d%s\n", st.Intervals, kernelNote)
	if !*nocache {
		l1i, l1d, l2r := st.MissRates()
		fmt.Printf("miss rates       L1I %.3f%%  L1D %.3f%%  L2 %.3f%%  (DRAM %d)\n",
			100*l1i, 100*l1d, 100*l2r, st.DRAM)
	}
	fmt.Printf("branches         %d lookups, %.2f%% mispredicted\n",
		st.BrLookups, 100*float64(st.BrMispreds)/float64(max(st.BrLookups, 1)))
	if acc := rep.Accel; acc != nil {
		sum := acc.Summary()
		warmNote := ""
		if rep.Replayed {
			warmNote = " (replayed)"
		}
		fmt.Printf("acceleration     coverage %.1f%% of %d invocations; %d clusters over %d services; %d re-learns; %d outliers%s\n",
			100*sum.Coverage(), sum.Learned+sum.Predicted, sum.Clusters, sum.Services,
			sum.Relearns, sum.Outliers, warmNote)
		fmt.Printf("fast-forwarded   %d of %d instructions (%.1f%%)\n",
			st.EmuInsts, st.Insts, 100*float64(st.EmuInsts)/float64(st.Insts))
		if prov := rep.Transfer; prov != nil {
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
	if rep.Sample != nil {
		fmt.Printf("sampling         %s\n", rep.Sample.Summary(st.Cycles))
	}
	fmt.Printf("host time        %.2fs (%.0f ns/inst)\n",
		host.Seconds(), float64(host.Nanoseconds())/float64(st.Insts))
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fssim: "+format+"\n", args...)
	os.Exit(1)
}

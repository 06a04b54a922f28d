// Command fsbench regenerates the paper's evaluation artifacts: every figure
// (1-12) and table (1-2), or any subset, printing the same rows/series the
// paper reports.
//
// The harness runs experiments over a shared scheduler: each distinct
// (benchmark, mode, L2, scale, seed, options) simulation executes exactly
// once per invocation, and independent simulations run concurrently on a
// worker pool. Tables are byte-identical at any -j because every run's seed
// is derived from the base seed and its run key, never from scheduling order.
//
// Usage:
//
//	fsbench                  # run everything at default scale
//	fsbench -exp fig8        # one artifact
//	fsbench -exp fig2,tab2   # a subset
//	fsbench -scale 0.5       # half-size workloads (faster, noisier)
//	fsbench -j 8             # up to 8 concurrent simulations
//	fsbench -j 1             # serial (tables identical to any other -j)
//	fsbench -pincosts        # pin tab1/tab2 host-cost columns (reproducible)
//	fsbench -faults storm    # inject the "storm" fault plan into every run
//	fsbench -sample default  # stratified app-interval sampling on every run
//	fsbench -timeout 2m      # abort any single simulation after 2 minutes
//	fsbench -trace out.json  # record every run; export Chrome trace JSON
//	fsbench -trace out.jsonl # ... or compact JSON lines (by extension)
//	fsbench -metrics -       # dump per-run metrics registries (- = stdout)
//	fsbench -warm-dir warm   # persist learned PLTs; replay identical runs
//	                         # across invocations (tables stay byte-identical)
//	fsbench -warm-dir warm -transfer
//	                         # warm-start each accelerated run from the nearest
//	                         # eligible donor snapshot (cross-config transfer)
//
// Ctrl-C cancels cleanly: in-flight simulations abort cooperatively, and
// experiments that already finished are still printed; the artifact flush is
// bounded by -drain-timeout, so completed runs' snapshots and traces are
// persisted without a hung run wedging exit. A second Ctrl-C forces exit 1.
// A run that fails (panic, timeout) is reported per run; every other run
// completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/faults"
	"fssim/internal/sample"
	"fssim/internal/server"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (fig1..fig12, tab1, tab2, faults) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	pincosts := flag.Bool("pincosts", false, "pin tab1/tab2 mode costs to reference values instead of timing this host")
	timeout := flag.Duration("timeout", 0, "per-simulation wall-clock limit (0 = unlimited)")
	faultPlan := flag.String("faults", "", "fault plan injected into every simulation ("+strings.Join(faults.Names(), ", ")+"; empty = none)")
	sampleSpec := flag.String("sample", "", "stratified app-interval sampling spec applied to every simulation ("+strings.Join(sample.PresetNames(), ", ")+" or key=value list; empty = none)")
	traceOut := flag.String("trace", "", "record every simulation and export a trace file (.jsonl = JSON lines, anything else = Chrome trace-event JSON for Perfetto)")
	metricsOut := flag.String("metrics", "", "write per-run metrics registries plus harness counters to this file (- = stdout)")
	warmDir := flag.String("warm-dir", "", "persist learned PLT snapshots here and replay identical accelerated runs across invocations (empty = off)")
	transferOn := flag.Bool("transfer", false, "warm-start every accelerated run's PLT from the nearest eligible donor snapshot in -warm-dir (cross-config transfer; requires -warm-dir)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "budget for the exit-time artifact and snapshot flush (runs still executing at the deadline are skipped)")
	var parallel int
	flag.IntVar(&parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	flag.IntVar(&parallel, "j", 0, "shorthand for -parallel")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, err := experiments.Title(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-6s %s\n", id, title)
		}
		return
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Ctrl-C cancels the context; in-flight simulations abort cooperatively
	// and already-finished experiments still render below. A second Ctrl-C
	// forces immediate exit 1 — the durable write discipline keeps the warm
	// store consistent even then.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fsbench: interrupt: canceling in-flight simulations (interrupt again to force exit)")
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "fsbench: second interrupt: forced exit")
		os.Exit(1)
	}()

	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Parallelism: parallel,
		Timeout:  *timeout,
		Trace:    *traceOut != "" || *metricsOut != "",
		WarmDir:  *warmDir,
		Transfer: *transferOn,
	}.WithContext(ctx)
	// The spec flags are parsed here, once; nothing below parses a spec.
	var err error
	if *faultPlan != "" {
		cfg.Faults, err = faults.Named(*faultPlan)
	}
	if err == nil && *sampleSpec != "" {
		cfg.Sample, err = sample.ParseSpec(*sampleSpec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
		os.Exit(1)
	}
	if *pincosts {
		mc := experiments.ReferenceModeCosts
		cfg.ModeCosts = &mc
	}

	start := time.Now()
	sched := experiments.NewScheduler(cfg)
	results, err := sched.RunMany(ids)
	ok := 0
	for _, res := range results {
		if res != nil {
			fmt.Println(res.Render())
			ok++
		}
	}
	if err != nil {
		// errors.Join renders one line per failed experiment; each line names
		// the run and cause (see experiments.RunError).
		fmt.Fprintf(os.Stderr, "fsbench: %d of %d experiments failed:\n%v\n", len(results)-ok, len(results), err)
	}
	// Artifact export and the authoritative snapshot sweep go through the
	// drain path the serving front-end uses on SIGTERM. It runs even when the
	// suite was interrupted (Ctrl-C) or partially failed, and canceled runs'
	// partial traces are flushed too (labeled "!aborted"). Empty paths skip
	// their artifact and no warm dir skips the sweep; one failure does not
	// skip the rest, and the drain budget keeps a wedged run from hanging exit.
	fctx, fcancel := context.WithTimeout(context.Background(), *drain)
	werr := server.WriteArtifacts(fctx, sched, *traceOut, *metricsOut)
	fcancel()
	if werr != nil {
		fmt.Fprintf(os.Stderr, "fsbench: %v\n", werr)
		os.Exit(1)
	}
	if *traceOut != "" {
		fmt.Printf("trace: wrote %s\n", *traceOut)
	}
	st := sched.Stats()
	fmt.Printf("suite: %d/%d experiments, %d distinct simulations (%d requests, %d served from cache, %d failed), sim %.1fs in %.1fs wall at -j %d\n",
		ok, len(results), st.Distinct, st.Hits+st.Misses, st.Hits, st.Failures,
		st.SimWall.Seconds(), time.Since(start).Seconds(), sched.Parallelism())
	if *warmDir != "" {
		fmt.Printf("plt: %d replayed warm, %d cold, %d invalidated, %d snapshots saved, %d instances learned\n",
			st.WarmHits, st.WarmMisses, st.WarmInvalid, st.WarmSaves, st.PLTLearned)
	}
	if st.TransferHits > 0 || st.TransferRejected > 0 {
		fmt.Printf("transfer: %d runs imported donor priors, %d directives rejected (cold fallback)\n",
			st.TransferHits, st.TransferRejected)
		for _, rec := range sched.Transfers() {
			fmt.Printf("plt: %s: %s\n", rec.Key, rec.Prov)
		}
	}
	if *sampleSpec != "" || st.SampledRuns > 0 {
		red := 1.0
		if st.SampleDetailed > 0 {
			red = float64(st.SampleDetailed+st.SampleExtrapolated) / float64(st.SampleDetailed)
		}
		fmt.Printf("sample: %d sampled runs, %d detailed + %d extrapolated app intervals (%.1fx reduction)\n",
			st.SampledRuns, st.SampleDetailed, st.SampleExtrapolated, red)
	}
	if err != nil {
		os.Exit(1)
	}
}

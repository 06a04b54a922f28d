// Command fssimd is the long-lived serving front-end over the experiment
// scheduler: an HTTP/JSON server that lets many concurrent clients submit
// (benchmark, mode, L2, scale, seed, faults) simulation requests and share
// the deterministic, RunKey-memoized results.
//
// Usage:
//
//	fssimd                         # serve on :8080
//	fssimd -addr :9090             # another port
//	fssimd -queue 128 -workers 8   # admission bound and worker-pool width
//	fssimd -deadline 30s           # per-request result deadline (and cap)
//	fssimd -timeout 2m             # per-simulation wall-clock limit
//	fssimd -drain-timeout 15s      # graceful-drain budget on SIGTERM/SIGINT
//	fssimd -trace trace.json -metrics metrics.txt  # artifacts flushed on drain
//	fssimd -warm-dir warm          # persist learned PLTs; replay across restarts
//	fssimd -warm-dir warm -transfer
//	                               # serve "transfer":"store" requests from the
//	                               # nearest eligible donor snapshot
//
// Endpoints:
//
//	POST /v1/runs            submit a run; body {"benchmark": "ab-rand", ...}
//	GET  /v1/runs/{id}       a completed run's (byte-identical) result
//	GET  /v1/runs/{id}/trace the run's Chrome trace-event JSON (with -trace)
//	GET  /v1/plt/{benchmark} the newest persisted PLT snapshot (with -warm-dir)
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining)
//	GET  /metrics            serving-path and scheduler counters
//
// Robustness contract: requests beyond the admission queue get 429 +
// Retry-After; a failed run returns its own error (500, or 504 on a run
// timeout) to its callers and is not cached; SIGTERM/SIGINT stops
// admission, finishes or cancels in-flight runs within the drain budget,
// flushes artifacts (bounded — completed work is persisted, wedged runs are
// skipped), and exits 0. A second SIGTERM/SIGINT forces immediate exit 1,
// and a watchdog forces exit 1 if the drain itself wedges; either way the
// durable write discipline guarantees the warm store is never torn.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fssim/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "admission bound: max requests waiting or running; beyond it, 429")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 2*time.Minute, "default and maximum per-request result deadline")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget before in-flight runs are canceled (second signal forces exit)")
	timeout := flag.Duration("timeout", 0, "per-simulation wall-clock limit (0 = the request deadline)")
	scale := flag.Float64("scale", 1.0, "default workload size multiplier for requests that leave scale unset")
	seed := flag.Int64("seed", 1, "default simulation seed for requests that leave seed unset")
	traceOut := flag.String("trace", "", "record every simulation; flush a trace file on drain (.jsonl = JSON lines, else Chrome trace-event JSON)")
	metricsOut := flag.String("metrics", "", "flush per-run metrics registries plus harness counters to this file on drain (- = stdout)")
	doTrace := flag.Bool("record", false, "record simulations (enables GET /v1/runs/{id}/trace) even without -trace/-metrics")
	warmDir := flag.String("warm-dir", "", "persist learned PLT snapshots here and replay identical accelerated requests across restarts (empty = off)")
	transferOn := flag.Bool("transfer", false, "serve \"transfer\":\"store\" requests by importing the nearest eligible donor PLT from -warm-dir (cross-config transfer; requires -warm-dir)")
	flag.Parse()

	cfg := server.Config{
		Addr:         *addr,
		Queue:        *queue,
		Workers:      *workers,
		Deadline:     *deadline,
		DrainTimeout: *drain,
		RunTimeout:   *timeout,
		Scale:        *scale,
		Seed:         *seed,
		Trace:        *doTrace,
		TracePath:    *traceOut,
		MetricsPath:  *metricsOut,
		WarmDir:      *warmDir,
		Transfer:     *transferOn,
	}
	if *transferOn && *warmDir == "" {
		fmt.Fprintln(os.Stderr, "fssimd: -transfer requires -warm-dir (donor snapshots come from the warm store)")
		os.Exit(2)
	}

	// SIGTERM (orchestrators) and SIGINT (terminals) both start the drain:
	// stop admitting, resolve in-flight runs against the drain budget, flush
	// artifacts, exit 0. A second signal — or a wedged drain outliving its
	// watchdog — forces immediate exit 1: shutdown is always bounded, and the
	// durable write discipline keeps the warm store consistent either way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "fssimd: %v: draining (budget %v; signal again to force exit)\n", sig, *drain)
		cancel()
		// Watchdog: even if the drain path itself wedges (a run that ignores
		// cancellation, a hung filesystem), the process still exits. The
		// budget covers the in-flight wait plus the bounded artifact flush.
		time.AfterFunc(2*(*drain)+10*time.Second, func() {
			fmt.Fprintln(os.Stderr, "fssimd: drain watchdog expired: forcing exit")
			os.Exit(1)
		})
		sig = <-sigc
		fmt.Fprintf(os.Stderr, "fssimd: %v: forced exit\n", sig)
		os.Exit(1)
	}()

	s := server.New(cfg)

	go func() {
		fmt.Fprintf(os.Stderr, "fssimd: serving on %s (queue %d, deadline %v, drain %v)\n",
			s.Addr(), *queue, *deadline, *drain)
	}()
	if err := s.Serve(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fssimd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fssimd: drained cleanly")
}

package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"fssim/internal/durable"
	"fssim/internal/experiments"
)

// WriteArtifacts is the shared drain path for trace/metrics artifacts: it is
// what the server flushes on graceful shutdown and what fsbench flushes after
// a run — including an interrupted (SIGINT-canceled) one, whose aborted runs
// still export their partial traces. Empty paths are skipped; a failure on
// one artifact does not stop the other, and all failures are joined.
//
// tracePath ending in .jsonl gets compact JSON lines; any other trace path
// gets the Chrome trace-event document Perfetto loads. metricsPath gets the
// deterministic per-run metrics registries followed by the host-dependent
// harness counters; "-" writes them to stdout.
//
// When the scheduler has a warm store, every completed accelerated run's PLT
// snapshot is also swept to disk here — the authoritative save that backs up
// the per-run best-effort writes, so a drained process always leaves its
// learned state behind.
//
// ctx bounds the flush: completed runs always flush, but waits on
// still-executing runs end at the deadline — their snapshots and traces are
// skipped (and reported) rather than wedging a shutdown forever. Partial
// progress is kept: everything flushed before the deadline stays flushed.
func WriteArtifacts(ctx context.Context, sched *experiments.Scheduler, tracePath, metricsPath string) error {
	var errs []error
	if _, err := sched.FlushWarm(ctx); err != nil {
		errs = append(errs, fmt.Errorf("plt snapshot flush: %w", err))
	}
	if tracePath != "" {
		if err := writeFile(tracePath, func(w io.Writer) error {
			if strings.HasSuffix(tracePath, ".jsonl") {
				return sched.WriteJSONLTrace(ctx, w)
			}
			return sched.WriteChromeTrace(ctx, w)
		}); err != nil {
			errs = append(errs, fmt.Errorf("trace export: %w", err))
		}
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, func(w io.Writer) error {
			if err := sched.WriteRunMetrics(ctx, w); err != nil {
				return err
			}
			return sched.WriteHarnessMetrics(w)
		}); err != nil {
			errs = append(errs, fmt.Errorf("metrics export: %w", err))
		}
	}
	return errors.Join(errs...)
}

// writeFile writes one artifact to path ("-" = stdout) through the durable
// temp-fsync-rename discipline, so a failed or interrupted export never
// leaves a torn artifact at the destination: readers observe the old file or
// the complete new one, nothing in between.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	return durable.AtomicWriteFile(durable.OS(), path, write)
}

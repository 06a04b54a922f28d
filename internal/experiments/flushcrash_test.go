package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fssim/internal/core"
	"fssim/internal/durable"
	"fssim/internal/pltstore"
)

// TestFlushWarmCtxBoundedByDeadline pins the bounded-drain contract: a run
// that never finishes cannot wedge the flush. Completed runs' snapshots are
// saved unconditionally, the in-flight one is skipped at the deadline, and
// the skip is reported rather than silently dropped.
func TestFlushWarmCtxBoundedByDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	s := NewScheduler(cfg)
	if _, err := s.Get(cfg.accelKey("ab-rand", core.Statistical, 0)); err != nil {
		t.Fatal(err)
	}
	// Remove the per-run save so the flush has real work to do.
	store := pltstore.Open(dir)
	paths, err := store.List("")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	// A warm-eligible run that never completes: its done channel never
	// closes, the shape of a simulation wedged past every timeout.
	hung := cfg.accelKey("hung-run", core.Statistical, 0)
	s.mu.Lock()
	s.runs[hung] = &runEntry{done: make(chan struct{})}
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	n, err := s.FlushWarm(ctx)
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("flush took %v with a hung run; the deadline did not bound it", elapsed)
	}
	if n != 1 {
		t.Errorf("flushed %d snapshots, want the 1 completed run", n)
	}
	if err == nil || !strings.Contains(err.Error(), "flush deadline") {
		t.Errorf("FlushWarm error = %v, want a flush-deadline skip report", err)
	}
	if paths, _ := store.List(""); len(paths) != 1 {
		t.Errorf("completed run's snapshot not persisted: %d files", len(paths))
	}
}

// TestCrashExplorerFlushWarm drives the whole stack — scheduler, warm save,
// drain-time flush — over a crash-injecting filesystem and explores every
// crash point of the combined op log: after recovery the snapshot address
// holds the exact persisted bytes or nothing, and the store is never wedged.
func TestCrashExplorerFlushWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	cfs := durable.NewCrashFS()
	cfg := warmTestConfig("warm")
	cfg.warmFS = cfs
	s := NewScheduler(cfg)
	key := cfg.accelKey("ab-rand", core.Statistical, 0)
	if _, err := s.Get(key); err != nil {
		t.Fatal(err)
	}
	if n, err := s.FlushWarm(context.Background()); err != nil || n != 1 {
		t.Fatalf("FlushWarm = (%d, %v), want (1, nil)", n, err)
	}
	learn := warmLearnHash(key)
	snap, err := pltstore.OpenFS("warm", cfs).Load(key.Bench, learn)
	if err != nil {
		t.Fatalf("final snapshot unloadable: %v", err)
	}
	want := pltstore.Encode(snap)

	n, err := cfs.Explore(0, "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		rs := pltstore.Open(dir)
		if _, err := rs.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		got, err := os.ReadFile(rs.Path(key.Bench, learn))
		if err != nil {
			if os.IsNotExist(err) {
				return nil // crashed before publication: a clean cold start
			}
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("snapshot holds %d bytes matching neither absent nor the persisted state", len(got))
		}
		if _, err := rs.Load(key.Bench, learn); err != nil {
			return fmt.Errorf("snapshot survived recovery but fails load: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d crash states", n)
	if n < 10 {
		t.Fatalf("only %d crash states explored; explorer is not exhaustive", n)
	}
}

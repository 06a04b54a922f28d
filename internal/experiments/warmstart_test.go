package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fssim/internal/core"
	"fssim/internal/pltstore"
)

func warmTestConfig(dir string) Config {
	mc := ReferenceModeCosts
	return Config{Scale: 0.1, Seed: 1, Parallelism: 2, ModeCosts: &mc, WarmDir: dir}
}

// TestWarmReplayByteIdentity is the tentpole acceptance check at the
// scheduler level: a second scheduler pointed at the same warm directory
// replays the accelerated run from its snapshot — no simulation, no learning
// — and the replayed result is byte-identical to both the run that produced
// the snapshot and a cold scheduler that never saw the warm store.
func TestWarmReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	key := cfg.accelKey("ab-rand", core.Statistical, 0)

	s1 := NewScheduler(cfg)
	cold, err := s1.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.Stats()
	if st1.WarmMisses != 1 || st1.WarmHits != 0 {
		t.Errorf("first run: warm misses %d hits %d, want 1 miss 0 hits", st1.WarmMisses, st1.WarmHits)
	}
	if st1.WarmSaves != 1 {
		t.Errorf("first run saved %d snapshots, want 1", st1.WarmSaves)
	}
	if st1.PLTLearned == 0 {
		t.Error("cold run reported zero learning")
	}

	s2 := NewScheduler(cfg)
	warm, err := s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.WarmHits != 1 || st2.WarmInvalid != 0 {
		t.Errorf("second run: warm hits %d invalid %d, want 1 hit", st2.WarmHits, st2.WarmInvalid)
	}
	if st2.PLTLearned != 0 {
		t.Errorf("replayed run reported %d learned instances, want 0 (nothing simulated)", st2.PLTLearned)
	}
	if warm.Stats != cold.Stats {
		t.Errorf("replayed stats differ from the run that produced the snapshot:\n got %+v\nwant %+v",
			warm.Stats, cold.Stats)
	}

	noWarm := cfg
	noWarm.WarmDir = ""
	s3 := NewScheduler(noWarm)
	ref, err := s3.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats != ref.Stats {
		t.Error("replayed stats differ from a cold scheduler's: replay is not result-preserving")
	}
}

// TestWarmLegacyIndexIsInert: a warm dir written by an older build may hold
// an INDEX file next to its snapshots. Startup recovery leaves it alone —
// untouched, not quarantined — and the accelerated run still replays warm.
func TestWarmLegacyIndexIsInert(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	key := cfg.accelKey("ab-rand", core.Statistical, 0)
	if _, err := NewScheduler(cfg).Get(key); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "INDEX")
	legacy := []byte(`{"version":1,"snapshots":[]}`)
	if err := os.WriteFile(index, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(cfg)
	if _, err := s.Get(key); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmRecoveredQuarantined != 0 || st.WarmHits != 1 || st.PLTLearned != 0 {
		t.Errorf("quarantined %d, warm hits %d, learned %d; want 0, 1, 0",
			st.WarmRecoveredQuarantined, st.WarmHits, st.PLTLearned)
	}
	if got, err := os.ReadFile(index); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("INDEX after recovery = %q, %v; want it untouched", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, pltstore.QuarantineDir)); !os.IsNotExist(err) {
		t.Errorf("quarantine dir exists (%v); nothing should have been quarantined", err)
	}
}

// TestWarmInvalidSnapshotsDegradeToCold covers the two invalidation paths:
// corrupt bytes, and a compatible-but-not-identical snapshot (different base
// seed, so the replay hash disagrees). Both count WarmInvalid and produce
// exactly the cold result.
func TestWarmInvalidSnapshotsDegradeToCold(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates accelerated runs")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	key := cfg.accelKey("ab-rand", core.Statistical, 0)
	s1 := NewScheduler(cfg)
	cold, err := s1.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt file", func(t *testing.T) {
		paths, err := pltstore.Open(dir).List(key.Bench)
		if err != nil || len(paths) != 1 {
			t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
		}
		orig, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append([]byte(nil), orig...)
		corrupt[len(corrupt)/2] ^= 0xff
		if err := os.WriteFile(paths[0], corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := NewScheduler(cfg)
		got, err := s2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		st := s2.Stats()
		// The startup recovery sweep quarantines the corrupt snapshot before
		// any run consults the store, so the lookup is a plain cold miss
		// rather than a per-load invalidation.
		if st.WarmRecoveredQuarantined != 1 {
			t.Errorf("recovered quarantined %d, want 1", st.WarmRecoveredQuarantined)
		}
		if st.WarmMisses != 1 || st.WarmHits != 0 || st.WarmInvalid != 0 {
			t.Errorf("warm misses %d hits %d invalid %d, want 1 miss after quarantine",
				st.WarmMisses, st.WarmHits, st.WarmInvalid)
		}
		if got.Stats != cold.Stats {
			t.Error("cold fallback after corrupt snapshot produced different stats")
		}
		// The cold rerun re-saves a valid snapshot over the corrupt one.
		if st.WarmSaves != 1 {
			t.Errorf("fallback run saved %d snapshots, want 1", st.WarmSaves)
		}
		if err := os.WriteFile(paths[0], orig, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("replay hash mismatch", func(t *testing.T) {
		// Same machine configuration (LearnHash ignores the seed), different
		// base seed: the snapshot is found at the same address but describes
		// a different exact run, so exact replay must be refused.
		cfg2 := cfg
		cfg2.Seed = 2
		key2 := cfg2.accelKey("ab-rand", core.Statistical, 0)
		s2 := NewScheduler(cfg2)
		got, err := s2.Get(key2)
		if err != nil {
			t.Fatal(err)
		}
		st := s2.Stats()
		if st.WarmInvalid != 1 || st.WarmHits != 0 {
			t.Errorf("warm invalid %d hits %d, want 1 invalid 0 hits", st.WarmInvalid, st.WarmHits)
		}
		noWarm := cfg2
		noWarm.WarmDir = ""
		ref, err := NewScheduler(noWarm).Get(key2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != ref.Stats {
			t.Error("seed-2 run with stale snapshot differs from cold seed-2 run")
		}
	})
}

// TestWarmTablesByteIdentical runs a whole experiment cold, then warm, and
// requires the rendered tables to match byte for byte while the warm pass
// replays every accelerated run it needs.
func TestWarmTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs fig11 twice")
	}
	cfg := warmTestConfig(t.TempDir())
	s1 := NewScheduler(cfg)
	res1, err := s1.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.WarmSaves == 0 {
		t.Fatalf("cold pass saved no snapshots: %+v", st)
	}

	s2 := NewScheduler(cfg)
	res2, err := s2.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.WarmHits == 0 || st.WarmMisses != 0 || st.WarmInvalid != 0 {
		t.Errorf("warm pass: hits %d misses %d invalid %d, want all accelerated runs replayed",
			st.WarmHits, st.WarmMisses, st.WarmInvalid)
	}
	if got, want := res2.StableRender(), res1.StableRender(); got != want {
		t.Errorf("warm table differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}

	noWarm := cfg
	noWarm.WarmDir = ""
	res3, err := NewScheduler(noWarm).Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if res3.StableRender() != res1.StableRender() {
		t.Error("warm-store-enabled table differs from a store-free run")
	}
}

// TestFlushWarm: the drain-time sweep rewrites every completed accelerated
// run's snapshot, recovering from lost per-run saves.
func TestFlushWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates an accelerated run")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	s := NewScheduler(cfg)
	if _, err := s.Get(cfg.accelKey("ab-rand", core.Statistical, 0)); err != nil {
		t.Fatal(err)
	}
	store := pltstore.Open(dir)
	paths, err := store.List("")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	n, err := s.FlushWarm(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("FlushWarm = (%d, %v), want (1, nil)", n, err)
	}
	if paths, _ := store.List(""); len(paths) != 1 {
		t.Errorf("flush left %d snapshots, want 1", len(paths))
	}
	// A scheduler without a warm store is a no-op.
	if n, err := NewScheduler(Config{Scale: 0.1}).FlushWarm(context.Background()); n != 0 || err != nil {
		t.Errorf("FlushWarm without store = (%d, %v), want (0, nil)", n, err)
	}
}

// TestWarmDirValidation rejects a warm dir that exists as a regular file.
func TestWarmDirValidation(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "not-a-dir")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg := DefaultConfig()
	cfg.WarmDir = f.Name()
	if _, err := Run("fig7", cfg); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("Run with file warm dir = %v, want not-a-directory error", err)
	}
}

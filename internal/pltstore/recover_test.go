package pltstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fssim/internal/durable"
)

// TestRecoverSweepsOrphansAndQuarantines covers the startup sweep end to
// end: orphan temps deleted, torn and transplanted snapshots quarantined
// (moved, not deleted), valid snapshots untouched bit-exact.
func TestRecoverSweepsOrphansAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	goodPath := s.Path(snap.Benchmark, snap.LearnHash)
	goodBytes, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed writer's temp, a torn snapshot, and a transplanted one.
	if err := os.WriteFile(filepath.Join(dir, durable.TempPrefix+"000042"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tornPath := s.Path(snap.Benchmark, snap.LearnHash+1)
	if err := os.WriteFile(tornPath, goodBytes[:len(goodBytes)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	transPath := s.Path("other-bench", snap.LearnHash)
	if err := os.WriteFile(transPath, goodBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := Open(dir)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Orphans != 1 || rep.Quarantined != 2 {
		t.Fatalf("report = %+v, want 1 orphan / 2 quarantined", rep)
	}
	if got, _ := os.ReadFile(goodPath); !bytes.Equal(got, goodBytes) {
		t.Fatal("valid snapshot was not preserved bit-exact")
	}
	if _, err := s2.Load(snap.Benchmark, snap.LearnHash); err != nil {
		t.Fatalf("valid snapshot unloadable after recover: %v", err)
	}
	if _, err := s2.Load(snap.Benchmark, snap.LearnHash+1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn snapshot still loadable-ish: %v", err)
	}
	qents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil || len(qents) != 2 {
		t.Fatalf("quarantine dir = %v entries, err %v; want 2", len(qents), err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			t.Fatalf("orphan temp %s survived recover", e.Name())
		}
	}
	if paths, err := s2.List(""); err != nil || len(paths) != 1 || paths[0] != goodPath {
		t.Fatalf("List after recover = %v, %v; want exactly the valid snapshot", paths, err)
	}

	// Idempotent: a second sweep finds nothing.
	rep, err = s2.Recover()
	if err != nil || rep.Orphans != 0 || rep.Quarantined != 0 {
		t.Fatalf("second recover = %+v, %v; want clean no-op", rep, err)
	}
}

// TestCrashBetweenTempAndRename injects a crash after the temp file is
// created and written but before it is renamed, materializes what the crash
// leaves on disk, and verifies the next open sweeps the directory clean.
func TestCrashBetweenTempAndRename(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	goodBytes := Encode(snap)

	// Second save of an updated snapshot dies between CreateTemp and Rename:
	// budget admits mkdir + create + the payload write, then every durable
	// op fails.
	snap2 := richSnapshot()
	snap2.Stats.Cycles++
	snap2.ReplayHash++
	cfs.FailAfter(3)
	if err := s.Save(snap2); !errors.Is(err, durable.ErrInjectedCrash) {
		t.Fatalf("save = %v, want injected crash", err)
	}
	cfs.FailAfter(-1)

	n, err := cfs.Explore(cfs.OpsLen(), "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		rs := Open(dir)
		rep, err := rs.Recover()
		if err != nil {
			return err
		}
		if rep.Orphans == 0 {
			t.Errorf("%s: crashed writer's temp not swept", p)
		}
		if got, err := os.ReadFile(rs.Path(snap.Benchmark, snap.LearnHash)); err != nil || !bytes.Equal(got, goodBytes) {
			t.Errorf("%s: previous snapshot damaged: %v", p, err)
		}
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), durable.TempPrefix) {
				t.Errorf("%s: temp %s survived the next open", p, e.Name())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no crash states explored")
	}
}

// TestSweepSparesLiveTemps pins the guard: Recover's orphan sweep never
// deletes a temp file a concurrent in-process writer still owns.
func TestSweepSparesLiveTemps(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	liveTemp := filepath.Join(dir, durable.TempPrefix+"live01")
	if err := os.WriteFile(liveTemp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.markLive(liveTemp, true)
	if rep, err := s.Recover(); err != nil || rep.Orphans != 0 {
		t.Fatalf("recover removed %d files (err %v), want 0", rep.Orphans, err)
	}
	if _, err := os.Stat(liveTemp); err != nil {
		t.Fatal("live temp was deleted by the sweep")
	}
	s.markLive(liveTemp, false)
	if rep, err := s.Recover(); err != nil || rep.Orphans != 1 {
		t.Fatalf("recover after release removed %d files (err %v), want 1", rep.Orphans, err)
	}
}

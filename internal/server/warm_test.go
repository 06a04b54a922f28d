package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fssim/internal/pltstore"
)

func warmServerConfig(dir string) Config {
	return Config{Scale: 0.1, Seed: 1, Workers: 2, Deadline: time.Minute, WarmDir: dir}
}

func accelRequest() RunRequest {
	return RunRequest{Benchmark: "srv-ok", Mode: "accel", Scale: 0.1, Seed: 1}
}

// TestServerWarmRestart is the restart story the store exists for: a second
// server process pointed at the same warm directory serves the identical
// accelerated request byte-for-byte from the snapshot, without simulating or
// learning anything.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, c1 := newTestServer(t, warmServerConfig(dir))
	cold, err := c1.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Scheduler().Stats(); st.WarmSaves != 1 {
		t.Fatalf("first server saved %d snapshots, want 1: %+v", st.WarmSaves, st)
	}

	s2, c2 := newTestServer(t, warmServerConfig(dir))
	warm, err := c2.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Scheduler().Stats()
	if st.WarmHits != 1 || st.WarmInvalid != 0 {
		t.Errorf("restarted server: warm hits %d invalid %d, want 1 hit", st.WarmHits, st.WarmInvalid)
	}
	if st.PLTLearned != 0 {
		t.Errorf("restarted server learned %d instances, want 0 (replayed, nothing simulated)", st.PLTLearned)
	}
	if !bytes.Equal(warm.Body, cold.Body) {
		t.Errorf("replayed response differs from the cold one:\n warm: %s\n cold: %s", warm.Body, cold.Body)
	}

	// A corrupt snapshot degrades the next restart to cold simulation — same
	// bytes, the file quarantined at startup, never an error to the client.
	paths, err := pltstore.Open(dir).List("srv-ok")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	if err := os.WriteFile(paths[0], []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, c3 := newTestServer(t, warmServerConfig(dir))
	fallback, err := c3.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The startup recovery sweep quarantines the corrupt snapshot before the
	// request arrives, so the run is a plain cold miss, not an invalidation.
	if st := s3.Scheduler().Stats(); st.WarmRecoveredQuarantined != 1 || st.WarmInvalid != 0 || st.WarmHits != 0 {
		t.Errorf("corrupt store: recovered quarantined %d invalid %d hits %d, want 1 quarantined 0 invalid 0 hits",
			st.WarmRecoveredQuarantined, st.WarmInvalid, st.WarmHits)
	}
	if !bytes.Equal(fallback.Body, cold.Body) {
		t.Error("cold fallback after corrupt snapshot produced a different response body")
	}
}

// TestSnapshotEndpoint covers GET /v1/plt/{benchmark}: the raw snapshot bytes
// once an accelerated run persisted them, and 404s for every absence —
// including a benchmark whose name is only a prefix of a stored one.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, c := newTestServer(t, warmServerConfig(dir))

	// Before any accelerated run: no snapshot yet.
	if _, err := c.Snapshot(ctx, "srv-ok"); !errors.As(err, new(*APIError)) {
		t.Fatalf("Snapshot before any run = %v, want *APIError (404)", err)
	}
	if _, err := c.Run(ctx, accelRequest()); err != nil {
		t.Fatal(err)
	}
	data, err := c.Snapshot(ctx, "srv-ok")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pltstore.Decode(data)
	if err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}
	if snap.Benchmark != "srv-ok" {
		t.Errorf("served snapshot is for %q, want srv-ok", snap.Benchmark)
	}
	// The served bytes are exactly the on-disk file.
	paths, _ := pltstore.Open(dir).List("srv-ok")
	if len(paths) != 1 {
		t.Fatalf("want one snapshot on disk, have %v", paths)
	}
	disk, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, disk) {
		t.Error("served snapshot bytes differ from the on-disk file")
	}

	// A store holding only an ab-rand snapshot serves it under ab-rand and
	// nowhere else: not under the prefix "ab", not as an index, not by hash.
	abDir := t.TempDir()
	snap.Benchmark = "ab-rand"
	if err := pltstore.Open(abDir).Save(snap); err != nil {
		t.Fatal(err)
	}
	_, cAB := newTestServer(t, warmServerConfig(abDir))
	if got, err := cAB.Snapshot(ctx, "ab-rand"); err != nil || !bytes.Equal(got, pltstore.Encode(snap)) {
		t.Errorf("Snapshot(ab-rand) = %d bytes, %v; want the stored ab-rand snapshot", len(got), err)
	}
	for _, path := range []string{"/v1/plt/ab", "/v1/plt", "/v1/plt/ab-rand/" + pltstore.FormatHash(snap.LearnHash)} {
		resp, err := http.Get(cAB.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// Unknown benchmark and corrupt newest file both 404.
	if _, err := c.Snapshot(ctx, "no-such-bench"); !errors.As(err, new(*APIError)) {
		t.Errorf("Snapshot(no-such-bench) = %v, want *APIError", err)
	}
	if err := os.WriteFile(paths[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(ctx, "srv-ok"); !errors.As(err, new(*APIError)) {
		t.Errorf("Snapshot of corrupt file = %v, want *APIError (404, never garbage bytes)", err)
	}
	_ = s

	// A server without a warm dir 404s the whole endpoint.
	_, cNoWarm := newTestServer(t, Config{Scale: 0.1, Seed: 1, Workers: 2})
	var ae *APIError
	if _, err := cNoWarm.Snapshot(ctx, "srv-ok"); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Errorf("Snapshot without warm dir = %v, want 404", err)
	}
}

// TestDrainFlushesWarm: the drain-time artifact flush re-persists every
// completed accelerated run even if the per-run save was lost.
func TestDrainFlushesWarm(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, c := newTestServer(t, warmServerConfig(dir))
	if _, err := c.Run(ctx, accelRequest()); err != nil {
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
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	paths, err = store.List("")
	if err != nil || len(paths) != 1 {
		t.Errorf("after drain: List = (%v, %v), want the snapshot restored", paths, err)
	}
	if len(paths) == 1 {
		if _, err := os.Stat(filepath.Join(dir, filepath.Base(paths[0]))); err != nil {
			t.Errorf("restored snapshot not under the warm dir: %v", err)
		}
	}
}

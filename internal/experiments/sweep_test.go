package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fssim/internal/core"
	"fssim/internal/pltstore"
)

// TestSweepTransferCutsDetailedWork is the tentpole acceptance check: every
// transferred sweep point must simulate at most half the detailed intervals
// of its cold twin, the ineligible point must be rejected and counted, and
// every import must carry provenance.
func TestSweepTransferCutsDetailedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the sweep experiment")
	}
	mc := ReferenceModeCosts
	s := NewScheduler(Config{Scale: 0.1, Seed: 1, Parallelism: 4, ModeCosts: &mc})
	res, err := s.Run("sweep")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TransferHits != 4 || st.TransferRejected != 2 {
		t.Errorf("transfer hits %d rejected %d, want 4 hits (2 benches x 2 eligible points) and 2 rejections",
			st.TransferHits, st.TransferRejected)
	}
	recs := s.Transfers()
	if len(recs) != 4 {
		t.Fatalf("Transfers() returned %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Prov.String(), "transferred-from=") {
			t.Errorf("%s: provenance %q lacks the transferred-from prefix", r.Key, r.Prov)
		}
	}

	var transferred int
	for _, line := range strings.Split(res.StableRender(), "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || f[8] != "transferred" {
			continue
		}
		transferred++
		dc, err1 := strconv.Atoi(f[4])
		dw, err2 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable detailed counts in row %q", line)
		}
		if dw*2 > dc {
			t.Errorf("%s @ %s: transferred point simulated %d detailed intervals vs %d cold — less than the required 2x cut",
				f[0], f[1], dw, dc)
		}
	}
	if transferred != 4 {
		t.Errorf("table shows %d transferred rows, want 4", transferred)
	}
}

// TestStoreTransferWarmStartsFromDonor covers the store-driven path end to
// end: a donor scheduler learns the 512KB point cold and persists it; a
// -transfer scheduler then imports it for the default (1MB) configuration,
// cutting detailed work at least 2x against a cold twin; and a third pass
// replays the transferred run from its own snapshot without simulating.
func TestStoreTransferWarmStartsFromDonor(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates accelerated runs")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)

	// Donor pass: the 512KB point, cold.
	if _, err := NewScheduler(cfg).Get(cfg.accelKey("ab-rand", core.Statistical, 512<<10)); err != nil {
		t.Fatal(err)
	}

	// Cold twin of the recipient, in a store-free scheduler.
	noWarm := cfg
	noWarm.WarmDir = ""
	coldRes, err := NewScheduler(noWarm).Get(cfg.accelKey("ab-rand", core.Statistical, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Recipient pass: -transfer resolves the stored donor for the 1MB point.
	tcfg := cfg
	tcfg.Transfer = true
	s := NewScheduler(tcfg)
	key := tcfg.accelKey("ab-rand", core.Statistical, 0)
	if !key.Transfer.Store {
		t.Fatalf("accelKey under Transfer config carries directive %q, want \"store\"", key.Transfer)
	}
	out, _, err := s.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TransferHits != 1 || st.TransferRejected != 0 {
		t.Errorf("transfer hits %d rejected %d, want exactly one import", st.TransferHits, st.TransferRejected)
	}
	if out.Transfer == nil {
		t.Fatal("transferred run carries no provenance")
	}
	if out.Transfer.DonorBench != "ab-rand" || out.Transfer.Distance != 1.0 {
		t.Errorf("provenance = %+v, want ab-rand donor at distance 1.0", out.Transfer)
	}
	dc := coldRes.Stats.Intervals - coldRes.Stats.Emulated
	dw := out.Result.Stats.Intervals - out.Result.Stats.Emulated
	if dw*2 > dc {
		t.Errorf("transferred run simulated %d detailed intervals vs %d cold — less than a 2x cut", dw, dc)
	}

	// Replay pass: the transferred run's own snapshot replays under the same
	// resolved donor, with no new simulation.
	s2 := NewScheduler(tcfg)
	out2, _, err := s2.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.WarmHits != 1 || st2.PLTLearned != 0 {
		t.Errorf("replay pass: warm hits %d learned %d, want 1 hit and no learning", st2.WarmHits, st2.PLTLearned)
	}
	if out2.Result.Stats != out.Result.Stats {
		t.Error("replayed transferred run differs from the run that produced the snapshot")
	}
	if out2.Transfer == nil || *out2.Transfer != *out.Transfer {
		t.Errorf("replayed provenance %+v differs from original %+v", out2.Transfer, out.Transfer)
	}
}

// TestStoreTransferRejectsIneligibleDonor: a donor beyond the distance cutoff
// is never imported — the directive is counted as rejected and the run is
// byte-identical to a cold one.
func TestStoreTransferRejectsIneligibleDonor(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates accelerated runs")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)

	// The only stored donor sits at 16MB: distance 4.0 from the default 1MB
	// recipient, comfortably beyond the 2.5 cutoff.
	if _, err := NewScheduler(cfg).Get(cfg.accelKey("ab-rand", core.Statistical, 16<<20)); err != nil {
		t.Fatal(err)
	}

	tcfg := cfg
	tcfg.Transfer = true
	s := NewScheduler(tcfg)
	out, _, err := s.Lookup(context.Background(), tcfg.accelKey("ab-rand", core.Statistical, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TransferHits != 0 || st.TransferRejected != 1 {
		t.Errorf("transfer hits %d rejected %d, want the lone directive rejected", st.TransferHits, st.TransferRejected)
	}
	if out.Transfer != nil {
		t.Errorf("rejected transfer still carries provenance %+v", out.Transfer)
	}

	noWarm := cfg
	noWarm.WarmDir = ""
	ref, err := NewScheduler(noWarm).Get(cfg.accelKey("ab-rand", core.Statistical, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Stats != ref.Stats {
		t.Error("rejected transfer's cold fallback differs from a plain cold run")
	}
}

// TestWarmSnapshotPathTieBreak pins the newest-snapshot selection when
// modification times collide (coarse filesystem timestamps): the
// lexicographically smallest path must win, deterministically, and its bytes
// are what WarmSnapshot returns.
func TestWarmSnapshotPathTieBreak(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates accelerated runs")
	}
	dir := t.TempDir()
	cfg := warmTestConfig(dir)
	s := NewScheduler(cfg)
	if _, err := s.Get(cfg.accelKey("ab-rand", core.Statistical, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(cfg.accelKey("ab-rand", core.Statistical, 512<<10)); err != nil {
		t.Fatal(err)
	}
	paths, err := pltstore.Open(dir).List("ab-rand")
	if err != nil || len(paths) != 2 {
		t.Fatalf("List = (%v, %v), want two snapshots", paths, err)
	}
	when := time.Now().Truncate(time.Second)
	for _, p := range paths {
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	got, snap, err := s.WarmSnapshot("ab-rand")
	if err != nil || !bytes.Equal(got, want) || snap.Key != cfg.accelKey("ab-rand", core.Statistical, 0).String() {
		t.Errorf("WarmSnapshot with tied mtimes = (%d bytes, %v), want the lexicographically smallest %s",
			len(got), err, paths[0])
	}
	if _, _, err := s.WarmSnapshot("du"); !errors.Is(err, pltstore.ErrNotFound) {
		t.Errorf("WarmSnapshot of a benchmark with no snapshot = %v, want ErrNotFound", err)
	}
	if _, _, err := NewScheduler(Config{Scale: 1, Seed: 1}).WarmSnapshot("ab-rand"); !errors.Is(err, pltstore.ErrNotFound) {
		t.Errorf("WarmSnapshot without a warm store = %v, want ErrNotFound", err)
	}
}

// TestTransferConfigValidation: the transfer flag is meaningless without a
// warm store to draw donors from.
func TestTransferConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transfer = true
	if _, err := Run("fig7", cfg); err == nil || !strings.Contains(err.Error(), "WarmDir") {
		t.Errorf("Run with Transfer but no WarmDir = %v, want a WarmDir error", err)
	}
}

package workload

import (
	"testing"

	"fssim/internal/cache"
)

// TestL2AccessesAreL1TrafficFullRun pins, on a whole Full-system run with
// TLB and prefetch off, that L2 accesses are exactly L1D misses plus L1D
// dirty writebacks plus L1I misses: the L2 seeing more accesses than the L1D
// is the L1D's writeback traffic, not redundant lookups.
func TestL2AccessesAreL1TrafficFullRun(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	res, err := Run("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Stats.Mem
	if want := m.L1D.Misses + m.L1D.Writebacks + m.L1I.Misses; m.L2.Accesses != want {
		t.Fatalf("L2 accesses %d, want L1D misses %d + L1D writebacks %d + L1I misses %d = %d",
			m.L2.Accesses, m.L1D.Misses, m.L1D.Writebacks, m.L1I.Misses, want)
	}
	if m.L1D.Misses == 0 || m.L1D.Writebacks == 0 || m.L1I.Misses == 0 {
		t.Fatalf("run leaves a term of the identity at zero: %+v", m)
	}
}

// TestPrefetchFullRunNoPollution checks that a prefetching Full-system run,
// which injects no pollution, reports no pollution evictions at any level:
// prefetch fills are not OS pollution.
func TestPrefetchFullRunNoPollution(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Machine.Mem = opts.Machine.Mem.WithPrefetch()
	res, err := Run("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Mem().Prefetches() == 0 {
		t.Fatal("prefetching run issued no prefetch")
	}
	m := res.Stats.Mem
	for _, lv := range []struct {
		name string
		st   cache.Stats
	}{{"L1I", m.L1I}, {"L1D", m.L1D}, {"L2", m.L2}} {
		if lv.st.PollutionEv != 0 {
			t.Errorf("%s: %d pollution evictions in a run that injects none", lv.name, lv.st.PollutionEv)
		}
	}
}

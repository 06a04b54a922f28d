package memsys

import (
	"testing"

	"fssim/internal/cache"
)

func TestHitLatencies(t *testing.T) {
	h := New(DefaultConfig())
	// Cold: L1D miss, L2 miss -> DRAM latency dominates.
	cold := h.Data(0x1000, 8, 100, false, cache.OwnerApp) - 100
	if cold < 300 {
		t.Errorf("cold access latency %d, want >= DRAM 300", cold)
	}
	// Warm L1D hit.
	warm := h.Data(0x1000, 8, 1000, false, cache.OwnerApp) - 1000
	if warm != uint64(DefaultConfig().L1D.HitLatency) {
		t.Errorf("L1D hit latency %d, want %d", warm, DefaultConfig().L1D.HitLatency)
	}
	// L2 hit after L1 eviction: displace the L1D set (4-way, 64 sets).
	for i := uint64(1); i <= 4; i++ {
		h.Data(0x1000+i*4096, 8, 2000, false, cache.OwnerApp)
	}
	l2hit := h.Data(0x1000, 8, 30000, false, cache.OwnerApp) - 30000
	want := uint64(DefaultConfig().L1D.HitLatency + DefaultConfig().L2.HitLatency)
	if l2hit != want {
		t.Errorf("L2 hit latency %d, want %d", l2hit, want)
	}
}

func TestMissOverlapBusBound(t *testing.T) {
	h := New(DefaultConfig())
	// 64 independent misses issued back to back: completion of the last
	// should reflect bus pipelining (~40 cycles apart), not serial 300s.
	var last uint64
	for i := uint64(0); i < 64; i++ {
		last = h.Data(0x100_0000+i*64, 8, i, false, cache.OwnerApp)
	}
	if last > 64*40+400 {
		t.Errorf("last completion %d: misses not overlapped", last)
	}
	if last < 300 {
		t.Errorf("last completion %d: missing DRAM latency", last)
	}
}

func TestCoalescing(t *testing.T) {
	h := New(DefaultConfig())
	a := h.Data(0x200_0000, 8, 10, false, cache.OwnerApp)
	// Second request to the same line while in flight coalesces: same
	// completion, no extra DRAM transaction.
	dram := h.DRAMAccesses()
	b := h.Data(0x200_0008, 8, 12, false, cache.OwnerApp)
	if h.DRAMAccesses() != dram {
		t.Error("coalesced access generated a DRAM transaction")
	}
	if b > a {
		t.Errorf("coalesced completion %d after original %d", b, a)
	}
}

func TestStraddlingAccess(t *testing.T) {
	h := New(DefaultConfig())
	h.Data(0x3000, 8, 0, false, cache.OwnerApp) // line 0x3000 resident
	st0 := h.Stats().L1D
	h.Data(0x303C, 8, 100, false, cache.OwnerApp) // straddles 0x3000/0x3040
	d := h.Stats().L1D.Sub(st0)
	if d.Misses != 1 {
		t.Errorf("straddling access misses = %d, want 1 (second line only)", d.Misses)
	}
}

func TestFetchPath(t *testing.T) {
	h := New(DefaultConfig())
	cold := h.Fetch(0x40_0000, 0, cache.OwnerOS)
	if cold < 300 {
		t.Errorf("cold fetch %d, want DRAM-latency bound", cold)
	}
	warm := h.Fetch(0x40_0000, 1000, cache.OwnerOS) - 1000
	if warm != uint64(DefaultConfig().L1I.HitLatency) {
		t.Errorf("warm fetch latency %d", warm)
	}
	if h.Stats().L1I.Misses != 1 {
		t.Errorf("L1I misses = %d", h.Stats().L1I.Misses)
	}
}

func TestInjectBusTraffic(t *testing.T) {
	h := New(DefaultConfig())
	h.InjectBusTraffic(100, 0) // 100 transfers from cycle 0: bus busy 4000
	start := h.Data(0x400_0000, 8, 10, false, cache.OwnerApp)
	// The fill queues behind the injected traffic: 4000 + ~300.
	if start < 4000 {
		t.Errorf("access at %d did not queue behind injected bus traffic", start)
	}
}

func TestTouchPhantomsStableFootprint(t *testing.T) {
	h := New(DefaultConfig())
	// Fill some app lines.
	for i := uint64(0); i < 512; i++ {
		h.Data(0x500_0000+i*64, 8, i, false, cache.OwnerApp)
	}
	base := uint64(0xF000_0000_0000_0000)
	h.TouchPhantoms(base, 0, 256, 256)
	ev1 := h.L1D().Stats().PollutionEv
	// Re-touching the same phantom set displaces (almost) nothing new.
	h.TouchPhantoms(base, 0, 256, 256)
	ev2 := h.L1D().Stats().PollutionEv
	if ev1 == 0 {
		t.Error("first phantom touch displaced nothing")
	}
	if ev2 != ev1 {
		t.Errorf("repeated phantom touch displaced %d more lines", ev2-ev1)
	}
}

func TestWithL2Size(t *testing.T) {
	cfg := DefaultConfig().WithL2Size(512 << 10)
	if cfg.L2.Size != 512<<10 {
		t.Fatalf("L2 size = %d", cfg.L2.Size)
	}
	if DefaultConfig().L2.Size != 1<<20 {
		t.Fatal("WithL2Size mutated the default")
	}
	h := New(cfg)
	if h.L2().Config().Size != 512<<10 {
		t.Fatal("hierarchy ignored L2 size")
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := New(DefaultConfig())
	// Dirty a line, evict it from L1 and L2 by streaming writes.
	h.Data(0x6000, 64, 0, true, cache.OwnerApp)
	before := h.DRAMAccesses()
	for i := uint64(1); i < 40000; i++ {
		h.Data(0x600_0000+i*64, 64, i*50, true, cache.OwnerApp)
	}
	if h.DRAMAccesses() <= before+40000 {
		t.Errorf("no writeback traffic observed: %d DRAM accesses", h.DRAMAccesses())
	}
}

func TestTLBModeling(t *testing.T) {
	h := New(DefaultConfig().WithTLB())
	// First touch of a page: TLB miss adds the walk latency on top of the
	// memory access.
	cold := h.Data(0x70_0000, 8, 0, false, cache.OwnerApp)
	if cold < 330 {
		t.Errorf("cold access with TLB walk completed at %d, want >= 330", cold)
	}
	// Same page: TLB hit; same line: L1D hit.
	warm := h.Data(0x70_0008, 8, 1000, false, cache.OwnerApp) - 1000
	if warm != uint64(DefaultConfig().L1D.HitLatency) {
		t.Errorf("warm access latency %d", warm)
	}
	_, dtlb := h.TLBStats()
	if dtlb.Misses != 1 {
		t.Errorf("DTLB misses = %d", dtlb.Misses)
	}
	// Flush: next access misses the TLB again.
	h.FlushTLB()
	h.Data(0x70_0010, 8, 2000, false, cache.OwnerApp)
	_, dtlb = h.TLBStats()
	if dtlb.Misses != 2 {
		t.Errorf("post-flush DTLB misses = %d", dtlb.Misses)
	}
}

func TestTLBDisabledByDefault(t *testing.T) {
	h := New(DefaultConfig())
	h.FlushTLB() // must be a no-op, not a panic
	i, d := h.TLBStats()
	if i.Accesses != 0 || d.Accesses != 0 {
		t.Error("TLB active despite default config")
	}
}

func TestPrefetchNextLine(t *testing.T) {
	h := New(DefaultConfig().WithPrefetch())
	// A streaming scan: with next-line prefetch, line N+1 is L2-resident by
	// the time the demand access arrives.
	h.Data(0x80_0000, 8, 0, false, cache.OwnerApp)
	if h.Prefetches() == 0 {
		t.Fatal("no prefetch issued")
	}
	if !h.L2().Probe(0x80_0040) {
		t.Fatal("next line not prefetched into L2")
	}
	// Demand access to the prefetched line: L2 hit (no new DRAM fill needed
	// beyond the prefetch's own).
	st0 := h.Stats().L2
	h.Data(0x80_0040, 8, 5000, false, cache.OwnerApp)
	if d := h.Stats().L2.Sub(st0); d.Misses != 0 {
		t.Errorf("prefetched line still missed: %+v", d)
	}
}

// BenchmarkDataCopyStream times the hierarchy alone on Emitter.CopyLines'
// access pattern — per 64 B line, one 64 B load from src and one 64 B store
// to dst — cycling over copies larger than the default 16 KB L1D, so nearly
// every access misses it: 64 KB each way stays in the L2 after the first
// pass, 1 MB each way (2 MB in all) misses the 1 MB L2 too. One op is one
// line copied.
func BenchmarkDataCopyStream(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines uint64
	}{{"l2", 64 << 10 / 64}, {"dram", 1 << 20 / 64}} {
		b.Run(bc.name, func(b *testing.B) {
			h := New(DefaultConfig())
			const src, dst = 0x1000_0000, 0x2000_0000
			var now uint64
			for i := 0; i < b.N; i++ {
				off := uint64(i) % bc.lines * 64
				now += 4
				h.Data(src+off, 64, now, false, cache.OwnerOS)
				h.Data(dst+off, 64, now+1, true, cache.OwnerOS)
			}
		})
	}
}

package memsys

import (
	"math/rand"
	"slices"
	"testing"

	"fssim/internal/cache"
)

// refHierarchy is the hierarchy's timing path as it was before inflight was
// kept in ready order and the miss path was flattened: reap filters every
// entry, MSHR admission scans for the earliest ready, Data always walks its
// lines in a loop, every level — TLBs included — is reached through
// Cache.Access and its AccessResult, and latencies are read from cfg at
// each use. Prefetch fills use Cache.Fill like the real hierarchy, so both
// caches evolve alike.
type refHierarchy struct {
	cfg          Config
	l1i, l1d, l2 *cache.Cache
	itlb, dtlb   *cache.Cache // nil unless cfg.TLBEntries > 0
	busFree      uint64
	inflight     []miss
	dram         uint64
	prefetches   uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, l1i: cache.New(cfg.L1I), l1d: cache.New(cfg.L1D), l2: cache.New(cfg.L2)}
	if cfg.TLBEntries > 0 {
		tlb := cache.Config{Size: cfg.TLBEntries * 4096, Assoc: 4, BlockSize: 4096}
		h.itlb, h.dtlb = cache.New(tlb), cache.New(tlb)
	}
	return h
}

// translate charges a page walk on a TLB miss.
func (h *refHierarchy) translate(tlb *cache.Cache, addr, now uint64, owner cache.Owner) uint64 {
	if tlb != nil && !tlb.Access(addr, 1, false, owner).Hit {
		return now + uint64(h.cfg.WalkLatency)
	}
	return now
}

func (h *refHierarchy) memFill(lineAddr, now uint64) uint64 {
	h.reap(now)
	for _, m := range h.inflight {
		if m.line == lineAddr {
			return m.ready
		}
	}
	start := now
	if len(h.inflight) >= h.cfg.MSHRs {
		earliest := h.inflight[0].ready
		for _, m := range h.inflight[1:] {
			if m.ready < earliest {
				earliest = m.ready
			}
		}
		if earliest > start {
			start = earliest
		}
		h.reap(start)
	}
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	ready := start + uint64(h.cfg.MemLatency)
	h.dram++
	h.inflight = append(h.inflight, miss{line: lineAddr, ready: ready})
	return ready
}

func (h *refHierarchy) reap(now uint64) {
	kept := h.inflight[:0]
	for _, m := range h.inflight {
		if m.ready > now {
			kept = append(kept, m)
		}
	}
	h.inflight = kept
}

func (h *refHierarchy) writebackToMem(now uint64) {
	start := now
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	h.dram++
}

func (h *refHierarchy) accessL2(lineAddr, now uint64, isWrite bool, owner cache.Owner) uint64 {
	res := h.l2.Access(lineAddr, 1, isWrite, owner)
	avail := now + uint64(h.cfg.L2.HitLatency)
	if !res.Hit {
		avail = h.memFill(lineAddr, now+uint64(h.cfg.L2.HitLatency))
		if res.Evicted && res.EvictedDirty {
			h.writebackToMem(now)
		}
		if h.cfg.Prefetch {
			next := lineAddr + uint64(h.cfg.L2.BlockSize)
			if !h.l2.Probe(next) {
				h.l2.Fill(next, owner)
				h.memFill(next, now+uint64(h.cfg.L2.HitLatency))
				h.prefetches++
			}
		}
	}
	return avail
}

func (h *refHierarchy) Data(addr uint64, size int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	if size <= 0 {
		size = 1
	}
	now = h.translate(h.dtlb, addr, now, owner)
	bs := uint64(h.cfg.L1D.BlockSize)
	first := h.l1d.LineAddr(addr)
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	avail := now
	remaining := size
	off := int(addr - first)
	for line := first; ; line += bs {
		span := int(bs) - off
		if span > remaining {
			span = remaining
		}
		res := h.l1d.Access(line, (span+7)/8, isWrite, owner)
		a := now + uint64(h.cfg.L1D.HitLatency)
		if !res.Hit {
			a = h.accessL2(line, now+uint64(h.cfg.L1D.HitLatency), false, owner)
			if res.Evicted && res.EvictedDirty {
				h.l2.Access(res.EvictedAddr, 1, true, owner)
			}
		}
		if a > avail {
			avail = a
		}
		remaining -= span
		off = 0
		if line == last {
			break
		}
	}
	return avail
}

func (h *refHierarchy) Fetch(pc, now uint64, owner cache.Owner) uint64 {
	now = h.translate(h.itlb, pc, now, owner)
	line := h.l1i.LineAddr(pc)
	if h.l1i.Access(line, 4, false, owner).Hit {
		return now + uint64(h.cfg.L1I.HitLatency)
	}
	return h.accessL2(line, now+uint64(h.cfg.L1I.HitLatency), false, owner)
}

func (h *refHierarchy) InjectBusTraffic(n int, from uint64) {
	if n <= 0 {
		return
	}
	if h.busFree < from {
		h.busFree = from
	}
	h.busFree += uint64(n) * uint64(h.cfg.BusOccupancy)
	h.dram += uint64(n)
}

func (h *refHierarchy) FlushTLB() {
	if h.itlb != nil {
		h.itlb.InvalidateAll()
		h.dtlb.InvalidateAll()
	}
}

func (h *refHierarchy) FlushAll() {
	h.l1i.InvalidateAll()
	h.l1d.InvalidateAll()
	h.l2.InvalidateAll()
	h.FlushTLB()
}

// TouchPhantoms replays each level's phantoms one Touch per line.
func (h *refHierarchy) TouchPhantoms(base uint64, l1i, l1d, l2 int) {
	for _, lv := range []struct {
		c *cache.Cache
		n int
	}{{h.l1i, l1i}, {h.l1d, l1d}, {h.l2, l2}} {
		for i := 0; i < lv.n; i++ {
			lv.c.Touch(base + uint64(i)*uint64(lv.c.Config().BlockSize))
		}
	}
}

func (h *refHierarchy) TLBStats() (itlb, dtlb cache.Stats) {
	if h.itlb == nil {
		return
	}
	return h.itlb.Stats(), h.dtlb.Stats()
}

// mshrConfigs are small hierarchies that miss often, with prefetch off and
// on, with few MSHRs so admission stalls happen, and with TLBs.
func mshrConfigs() map[string]Config {
	small := DefaultConfig()
	small.L2.Size = 64 << 10
	few := small.WithPrefetch()
	few.MSHRs = 2
	return map[string]Config{
		"default":        DefaultConfig(),
		"prefetch":       DefaultConfig().WithPrefetch(),
		"small-l2":       small,
		"small-prefetch": small.WithPrefetch(),
		"two-mshrs":      few,
		"tlb":            small.WithTLB(),
		"tlb-prefetch":   few.WithTLB(),
	}
}

// randomOp drives one random operation into h and ref and returns what
// each reported: Data (reads and writes, some straddling lines), Fetch and
// InjectBusTraffic, at times that mostly advance but sometimes step back,
// the way an out-of-order core issues them.
func randomOp(rng *rand.Rand, now *uint64, h *Hierarchy, ref *refHierarchy) (got, want uint64, what string) {
	*now += uint64(rng.Intn(60))
	at := *now - uint64(rng.Intn(int(min(*now, 400))+1))
	owner := cache.Owner(rng.Intn(2))
	switch k := rng.Intn(10); {
	case k < 6:
		addr := uint64(rng.Intn(1<<22)) &^ 3
		size := []int{1, 4, 8, 8, 64, 100}[rng.Intn(6)]
		w := rng.Intn(3) == 0
		return h.Data(addr, size, at, w, owner), ref.Data(addr, size, at, w, owner), "Data"
	case k < 9:
		pc := uint64(rng.Intn(1<<18)) &^ 3
		return h.Fetch(pc, at, owner), ref.Fetch(pc, at, owner), "Fetch"
	default:
		n := rng.Intn(8)
		h.InjectBusTraffic(n, at)
		ref.InjectBusTraffic(n, at)
		return 0, 0, "InjectBusTraffic"
	}
}

// FuzzHierarchyReference checks the flattened hierarchy against the
// reference on fuzzed operation streams. The first byte picks a config from
// mshrConfigs; each following 6-byte record is one Data (single-line,
// straddling, or stepping from the previous address so lines repeat),
// Fetch, InjectBusTraffic, FlushTLB, TouchPhantoms or FlushAll, at a time
// that mostly advances but may step back the way an out-of-order core
// issues. Every returned cycle, the per-level and TLB Stats, busFree, the
// DRAM and prefetch counts and the in-flight fills must match after every
// operation.
func FuzzHierarchyReference(f *testing.F) {
	names := make([]string, 0, len(mshrConfigs()))
	for name := range mshrConfigs() {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(17))
	for i := range names {
		b := make([]byte, 1+6*400)
		rng.Read(b)
		b[0] = byte(i)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := names[int(data[0])%len(names)]
		cfg := mshrConfigs()[name]
		h, ref := New(cfg), newRefHierarchy(cfg)
		var now, last uint64
		for data = data[1:]; len(data) >= 6; data = data[6:] {
			op, a0, a1, a2, a3, a4 := data[0], data[1], data[2], data[3], data[4], data[5]
			now += uint64(a0 & 63)
			at := now - min(now, uint64(a1)*2)
			owner := cache.Owner(op >> 7)
			// Mostly 256 lines in each of 16 sets of every level, so the
			// L2 evicts within a few hundred operations; a3's bit 4
			// spreads the address over 4 MB instead.
			addr := uint64(a2)<<13 | uint64(a3&15)<<6 | uint64(a4&63)
			if a3&16 != 0 {
				addr = uint64(a2)<<14 | uint64(a3)<<6 | uint64(a4&63)
			}
			var got, want uint64
			switch k := op & 15; {
			case k < 9: // Data: a3's top bits pick the size, op's bit 4 a step from the last address
				if op&16 != 0 {
					addr = last + uint64(int64(int8(a2))*8)
				}
				last = addr
				size := []int{1, 4, 8, 8, 16, 64, 100, 200}[a3>>5]
				w := a1&1 != 0
				got, want = h.Data(addr, size, at, w, owner), ref.Data(addr, size, at, w, owner)
			case k < 12:
				got, want = h.Fetch(addr, at, owner), ref.Fetch(addr, at, owner)
			case k == 12:
				n := int(a2&15) - 2 // n <= 0 is a no-op
				h.InjectBusTraffic(n, at)
				ref.InjectBusTraffic(n, at)
			case k == 13:
				h.FlushTLB()
				ref.FlushTLB()
			// Phantoms and flushes drop dirty lines unwritten, so they are
			// kept rare enough for dirty lines to reach the L2 and leave it.
			case k == 14 && a1 < 64: // up to 4x an L1's lines and about 4x the small L2's
				base := 0xF000_0000_0000_0000 + uint64(a1&7)<<12
				l1i, l1d, l2 := int(a2)*4, int(a3)*4, int(a4)*16
				h.TouchPhantoms(base, l1i, l1d, l2)
				ref.TouchPhantoms(base, l1i, l1d, l2)
			case k == 15 && a1 < 16:
				h.FlushAll()
				ref.FlushAll()
			}
			if got != want {
				t.Fatalf("%s: op %#x at %d: available at %d, reference %d", name, op, at, got, want)
			}
			if h.Stats() != (Snapshot{L1I: ref.l1i.Stats(), L1D: ref.l1d.Stats(), L2: ref.l2.Stats()}) {
				t.Fatalf("%s: op %#x: stats %+v, reference L1I %+v L1D %+v L2 %+v", name, op,
					h.Stats(), ref.l1i.Stats(), ref.l1d.Stats(), ref.l2.Stats())
			}
			gi, gd := h.TLBStats()
			wi, wd := ref.TLBStats()
			if gi != wi || gd != wd {
				t.Fatalf("%s: op %#x: TLB stats %+v %+v, reference %+v %+v", name, op, gi, gd, wi, wd)
			}
			if h.busFree != ref.busFree || h.dram != ref.dram || h.prefetches != ref.prefetches {
				t.Fatalf("%s: op %#x: bus %d dram %d prefetches %d, reference %d %d %d", name, op,
					h.busFree, h.dram, h.prefetches, ref.busFree, ref.dram, ref.prefetches)
			}
			if !slices.Equal(h.inflight, ref.inflight) {
				t.Fatalf("%s: op %#x: in flight %v, reference %v", name, op, h.inflight, ref.inflight)
			}
		}
	})
}

// TestMSHRInflightOrdered checks the premise of the prefix reap: inflight
// stays in ascending ready order and never holds more than MSHRs fills, and
// every availability cycle, counter and cache statistic matches the
// full-scan reference.
func TestMSHRInflightOrdered(t *testing.T) {
	for name, cfg := range mshrConfigs() {
		t.Run(name, func(t *testing.T) {
			h, ref := New(cfg), newRefHierarchy(cfg)
			rng := rand.New(rand.NewSource(7))
			var now uint64
			for i := 0; i < 50000; i++ {
				got, want, what := randomOp(rng, &now, h, ref)
				if got != want {
					t.Fatalf("op %d %s: available at %d, reference %d", i, what, got, want)
				}
				if len(h.inflight) > cfg.MSHRs {
					t.Fatalf("op %d: %d fills in flight, MSHRs %d", i, len(h.inflight), cfg.MSHRs)
				}
				for j := 1; j < len(h.inflight); j++ {
					if h.inflight[j].ready < h.inflight[j-1].ready {
						t.Fatalf("op %d: inflight out of ready order: %+v", i, h.inflight)
					}
				}
				if h.busFree != ref.busFree || h.dram != ref.dram || h.prefetches != ref.prefetches {
					t.Fatalf("op %d: bus %d dram %d prefetches %d, reference %d %d %d", i,
						h.busFree, h.dram, h.prefetches, ref.busFree, ref.dram, ref.prefetches)
				}
			}
			wantStats := Snapshot{L1I: ref.l1i.Stats(), L1D: ref.l1d.Stats(), L2: ref.l2.Stats()}
			if h.Stats() != wantStats {
				t.Fatalf("stats %+v, reference %+v", h.Stats(), wantStats)
			}
			if h.prefetches == 0 && cfg.Prefetch {
				t.Fatal("prefetching config issued no prefetch")
			}
		})
	}
}

// TestL2AccessesAreL1Traffic pins where L2 accesses come from: every one is
// an L1D miss, an L1D dirty writeback or an L1I miss — nothing else reaches
// the L2 as a counted access, so there is no redundant L2 traffic to drop.
// (Prefetch fills and phantom touches are uncounted.)
func TestL2AccessesAreL1Traffic(t *testing.T) {
	for name, cfg := range mshrConfigs() {
		t.Run(name, func(t *testing.T) {
			h, ref := New(cfg), newRefHierarchy(cfg)
			rng := rand.New(rand.NewSource(11))
			var now uint64
			for i := 0; i < 20000; i++ {
				randomOp(rng, &now, h, ref)
				if i%1000 == 0 {
					h.TouchPhantoms(0xF000_0000_0000_0000, rng.Intn(64), rng.Intn(64), rng.Intn(64))
				}
			}
			st := h.Stats()
			if want := st.L1D.Misses + st.L1D.Writebacks + st.L1I.Misses; st.L2.Accesses != want {
				t.Fatalf("L2 accesses %d, want L1D misses %d + L1D writebacks %d + L1I misses %d = %d",
					st.L2.Accesses, st.L1D.Misses, st.L1D.Writebacks, st.L1I.Misses, want)
			}
			if st.L1D.Writebacks == 0 {
				t.Fatal("stream produced no L1D writebacks")
			}
		})
	}
}

// TestPrefetchIsNotPollution checks that a prefetch fill keeps the
// requester's owner and is never counted as a pollution eviction, even when
// it displaces a line.
func TestPrefetchIsNotPollution(t *testing.T) {
	cfg := DefaultConfig().WithPrefetch()
	cfg.L2.Size = 64 << 10
	h := New(cfg)
	for i := uint64(0); i < 8192; i++ {
		h.Data(0x100_0000+i*128, 8, i*10, false, cache.OwnerApp)
	}
	if h.Prefetches() == 0 || h.L2().Stats().Evictions == 0 {
		t.Fatalf("stream did not prefetch over a full L2: %d prefetches, %+v", h.Prefetches(), h.L2().Stats())
	}
	for _, c := range []*cache.Cache{h.L1I(), h.L1D(), h.L2()} {
		if ev := c.Stats().PollutionEv; ev != 0 {
			t.Errorf("%s: %d pollution evictions with no pollution injected", c.Config().Name, ev)
		}
	}
	if _, os := h.L2().OwnedLines(); os != 0 {
		t.Errorf("app-only stream left %d OS-owned L2 lines", os)
	}
}

// TestTouchPhantomsMatchesPerLine checks the closed-form phantom replay
// against one Touch per line at the default L1I/L1D/L2 geometry. From
// random prior states (clean, dirty, app- and OS-owned lines, earlier
// phantoms), replays of up to 8x each level's capacity at repeated and
// set-offset bases must leave both hierarchies indistinguishable: the same
// Stats, owners and phantom residency, and the same availability cycle for
// every later access.
func TestTouchPhantomsMatchesPerLine(t *testing.T) {
	cfg := DefaultConfig()
	h, ref := New(cfg), newRefHierarchy(cfg)
	levels := []struct{ got, want *cache.Cache }{{h.l1i, ref.l1i}, {h.l1d, ref.l1d}, {h.l2, ref.l2}}
	rng := rand.New(rand.NewSource(13))
	var now uint64
	for round := 0; round < 8; round++ {
		for i := 0; i < 10000; i++ {
			if got, want, what := randomOp(rng, &now, h, ref); got != want {
				t.Fatalf("round %d op %d %s: available at %d, reference %d", round, i, what, got, want)
			}
		}
		// Two phantom ranges, entered at a random line: repeats hit
		// resident phantoms, offsets start the replay mid-set.
		base := 0xF000_0000_0000_0000 + uint64(rng.Intn(2))<<32 + uint64(rng.Intn(1<<12))*64
		var n [3]int
		for l, lv := range levels {
			n[l] = rng.Intn(8*lv.want.Config().Size/64 + 1)
			for i := 0; i < n[l]; i++ {
				lv.want.Touch(base + uint64(i)*64)
			}
		}
		h.TouchPhantoms(base, n[0], n[1], n[2])
		wantStats := Snapshot{L1I: ref.l1i.Stats(), L1D: ref.l1d.Stats(), L2: ref.l2.Stats()}
		if h.Stats() != wantStats {
			t.Fatalf("round %d replay %v: stats %+v, reference %+v", round, n, h.Stats(), wantStats)
		}
		for l, lv := range levels {
			ga, gos := lv.got.OwnedLines()
			wa, wos := lv.want.OwnedLines()
			if ga != wa || gos != wos {
				t.Fatalf("round %d %s: owned (%d, %d), reference (%d, %d)", round, lv.got.Config().Name, ga, gos, wa, wos)
			}
			for i := 0; i < n[l]; i++ {
				if addr := base + uint64(i)*64; lv.got.Probe(addr) != lv.want.Probe(addr) {
					t.Fatalf("round %d %s: Probe(%#x) = %v, reference %v", round, lv.got.Config().Name, addr, lv.got.Probe(addr), lv.want.Probe(addr))
				}
			}
		}
	}
	for i := 0; i < 10000; i++ {
		if got, want, what := randomOp(rng, &now, h, ref); got != want {
			t.Fatalf("after replays, op %d %s: available at %d, reference %d", i, what, got, want)
		}
	}
}

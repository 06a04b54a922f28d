package memsys

import (
	"math/rand"
	"testing"

	"fssim/internal/cache"
)

// refHierarchy is the hierarchy's timing path as it was before inflight was
// kept in ready order: reap filters every entry, MSHR admission scans for
// the earliest ready, and Data always walks its lines in a loop. Prefetch
// fills use Cache.Fill like the real hierarchy, so both caches evolve alike.
type refHierarchy struct {
	cfg          Config
	l1i, l1d, l2 *cache.Cache
	busFree      uint64
	inflight     []miss
	dram         uint64
	prefetches   uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1i: cache.New(cfg.L1I), l1d: cache.New(cfg.L1D), l2: cache.New(cfg.L2)}
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

// mshrConfigs are small hierarchies that miss often, with prefetch off and
// on and with few MSHRs so admission stalls happen.
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

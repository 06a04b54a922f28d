// Package memsys assembles the memory hierarchy of the simulated machine:
// split L1 instruction/data caches, a unified L2, a split-transaction memory
// bus, and DRAM. It provides latency-resolving access calls for the timing
// cores, with MSHR-style miss overlap and bus-bandwidth contention, and
// mirrors the configuration of the paper's evaluation platform (§5.1).
package memsys

import "fssim/internal/cache"

// Config describes the hierarchy. The defaults (see DefaultConfig) match the
// paper: 16KB 2-way L1I, 16KB 4-way L1D (2-cycle), 1MB 8-way L2 (8-cycle),
// 64B blocks, LRU, write-back; 300-cycle memory latency; 8B-wide 800MHz
// split-transaction bus on a 4GHz core (6.4 GB/s peak).
type Config struct {
	L1I, L1D, L2 cache.Config
	MemLatency   int // DRAM access latency in core cycles
	BusOccupancy int // bus cycles (in core cycles) one 64B transfer occupies
	MSHRs        int // max outstanding misses to memory

	// TLBEntries enables TLB modeling when positive: separate
	// 4-way-associative instruction and data TLBs of that many 4KB-page
	// entries, with WalkLatency cycles charged per miss (a hardware
	// page-table walk). The paper's Simics configuration does not model
	// TLBs, so this is off by default; see Config.WithTLB.
	TLBEntries  int
	WalkLatency int

	// Prefetch enables a next-line prefetcher at the L2: every demand L2
	// miss also fetches the following line using spare bus slots. Off by
	// default (not part of the paper's platform); see Config.WithPrefetch.
	Prefetch bool
}

// WithTLB returns a copy of c with TLB modeling enabled (64-entry I/D TLBs,
// 30-cycle walks — Pentium-4-era parameters).
func (c Config) WithTLB() Config {
	c.TLBEntries = 64
	c.WalkLatency = 30
	return c
}

// WithPrefetch returns a copy of c with the L2 next-line prefetcher enabled.
func (c Config) WithPrefetch() Config {
	c.Prefetch = true
	return c
}

// DefaultConfig returns the paper's §5.1 memory-system parameters.
func DefaultConfig() Config {
	return Config{
		L1I:        cache.Config{Name: "L1I", Size: 16 << 10, Assoc: 2, BlockSize: 64, HitLatency: 1},
		L1D:        cache.Config{Name: "L1D", Size: 16 << 10, Assoc: 4, BlockSize: 64, HitLatency: 2},
		L2:         cache.Config{Name: "L2", Size: 1 << 20, Assoc: 8, BlockSize: 64, HitLatency: 8},
		MemLatency: 300,
		// 64B line over an 8B-wide bus at 800MHz = 8 bus cycles = 40 cycles
		// at the 4GHz core frequency.
		BusOccupancy: 40,
		MSHRs:        8,
	}
}

// WithL2Size returns a copy of c with the L2 capacity replaced — the knob the
// paper's cache-size studies (Figs 2, 10, 12) turn.
func (c Config) WithL2Size(bytes int) Config {
	c.L2.Size = bytes
	return c
}

// Hierarchy is the instantiated memory system.
type Hierarchy struct {
	cfg Config
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache

	itlb *cache.Cache // nil unless TLB modeling is enabled
	dtlb *cache.Cache

	busFree    uint64 // cycle at which the memory bus is next idle
	inflight   []miss // outstanding line fills (MSHR + coalescing)
	dram       uint64 // DRAM accesses (fills + writebacks)
	prefetches uint64
}

type miss struct {
	line  uint64
	ready uint64
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1i: cache.New(cfg.L1I),
		l1d: cache.New(cfg.L1D),
		l2:  cache.New(cfg.L2),
	}
	if cfg.TLBEntries > 0 {
		tlbCfg := func(name string) cache.Config {
			return cache.Config{
				Name: name, Size: cfg.TLBEntries * 4096,
				Assoc: 4, BlockSize: 4096,
			}
		}
		h.itlb = cache.New(tlbCfg("ITLB"))
		h.dtlb = cache.New(tlbCfg("DTLB"))
	}
	return h
}

// FlushTLB invalidates both TLBs — the kernel calls this on address-space
// switches. A no-op when TLB modeling is disabled.
func (h *Hierarchy) FlushTLB() {
	if h.itlb == nil {
		return
	}
	h.itlb.InvalidateAll()
	h.dtlb.InvalidateAll()
}

// FlushAll invalidates every cache level and both TLBs — the fault model's
// cache-state perturbation, modeling an external agent (competing context,
// DMA-heavy device) evicting the hierarchy wholesale. Subsequent accesses
// cold-miss their way back in, shifting every service's behavior points.
func (h *Hierarchy) FlushAll() {
	h.l1i.InvalidateAll()
	h.l1d.InvalidateAll()
	h.l2.InvalidateAll()
	h.FlushTLB()
}

// tlbLookup charges a page-walk latency on a TLB miss and returns the
// translated access start time.
func (h *Hierarchy) tlbLookup(tlb *cache.Cache, addr, now uint64, owner cache.Owner) uint64 {
	if tlb == nil {
		return now
	}
	if res := tlb.Access(addr, 1, false, owner); !res.Hit {
		return now + uint64(h.cfg.WalkLatency)
	}
	return now
}

// TLBStats returns (ITLB, DTLB) statistics; zero values when disabled.
func (h *Hierarchy) TLBStats() (itlb, dtlb cache.Stats) {
	if h.itlb == nil {
		return
	}
	return h.itlb.Stats(), h.dtlb.Stats()
}

// Prefetches returns the number of prefetch fills issued.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1I, L1D, L2 expose the individual levels (stats, tests, diagnostics).
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }
func (h *Hierarchy) L2() *cache.Cache  { return h.l2 }

// DRAMAccesses returns the number of memory transactions performed.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dram }

// memFill models one line fill from DRAM starting no earlier than cycle now:
// MSHR admission, coalescing with an in-flight fill of the same line, bus
// arbitration, and DRAM latency. It returns the cycle the line is available.
//
// inflight is kept in ascending ready order for free: every fill starts at
// or after busFree and moves busFree past its start, so each start — and,
// with a fixed MemLatency, each ready — is at least its predecessor's. reap
// therefore retires a prefix and the earliest fill is inflight[0].
func (h *Hierarchy) memFill(lineAddr, now uint64) uint64 {
	// Coalesce with an outstanding fill of the same line.
	h.reap(now)
	for _, m := range h.inflight {
		if m.line == lineAddr {
			return m.ready
		}
	}
	start := now
	// MSHR admission: if all MSHRs busy, wait for the earliest to retire.
	if len(h.inflight) >= h.cfg.MSHRs {
		if earliest := h.inflight[0].ready; earliest > start {
			start = earliest
		}
		h.reap(start)
	}
	// Bus arbitration: split-transaction, so the bus is held only for the
	// transfer slot; latency overlaps with other fills.
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	ready := start + uint64(h.cfg.MemLatency)
	h.dram++
	h.inflight = append(h.inflight, miss{line: lineAddr, ready: ready})
	return ready
}

// reap retires the fills complete by cycle now: a prefix of inflight.
func (h *Hierarchy) reap(now uint64) {
	i := 0
	for i < len(h.inflight) && h.inflight[i].ready <= now {
		i++
	}
	if i > 0 {
		h.inflight = h.inflight[:copy(h.inflight, h.inflight[i:])]
	}
}

// writebackToMem models a dirty L2 eviction: it consumes a bus slot but does
// not delay the requesting access (posted write).
func (h *Hierarchy) writebackToMem(now uint64) {
	start := now
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.BusOccupancy)
	h.dram++
}

// accessL2 performs an L2 lookup for one line, filling from memory on a miss,
// and returns the cycle at which the line is available to the L1.
func (h *Hierarchy) accessL2(lineAddr, now uint64, isWrite bool, owner cache.Owner) uint64 {
	res := h.l2.Access(lineAddr, 1, isWrite, owner)
	avail := now + uint64(h.cfg.L2.HitLatency)
	if !res.Hit {
		avail = h.memFill(lineAddr, now+uint64(h.cfg.L2.HitLatency))
		if res.Evicted && res.EvictedDirty {
			h.writebackToMem(now)
		}
		if h.cfg.Prefetch {
			// Next-line prefetch: bring in the following line if absent,
			// consuming a bus slot but delaying no one.
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

// Data performs a data access of any size at cycle now and returns the cycle
// the data is available. Accesses that straddle line boundaries touch each
// line. Writes are charged to the cache state (write-back, write-allocate)
// but report availability like reads so the store queue can track retirement.
func (h *Hierarchy) Data(addr uint64, size int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	if size <= 0 {
		size = 1
	}
	now = h.tlbLookup(h.dtlb, addr, now, owner)
	bs := uint64(h.cfg.L1D.BlockSize)
	first := h.l1d.LineAddr(addr)
	if addr-first+uint64(size) <= bs {
		// One line, the common case; dataLine never returns before now.
		return h.dataLine(first, (size+7)/8, now, isWrite, owner)
	}
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	avail := now
	remaining := size
	off := int(addr - first)
	for line := first; ; line += bs {
		span := int(bs) - off
		if span > remaining {
			span = remaining
		}
		words := (span + 7) / 8
		a := h.dataLine(line, words, now, isWrite, owner)
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

func (h *Hierarchy) dataLine(lineAddr uint64, words int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	res := h.l1d.Access(lineAddr, words, isWrite, owner)
	avail := now + uint64(h.cfg.L1D.HitLatency)
	if !res.Hit {
		avail = h.accessL2(lineAddr, now+uint64(h.cfg.L1D.HitLatency), false, owner)
		if res.Evicted && res.EvictedDirty {
			// L1 dirty victim written back into L2 (posted; state change only).
			h.l2.Access(res.EvictedAddr, 1, true, owner)
		}
	}
	return avail
}

// Fetch performs an instruction-fetch access for the line containing pc and
// returns the cycle the fetch group is available.
func (h *Hierarchy) Fetch(pc, now uint64, owner cache.Owner) uint64 {
	now = h.tlbLookup(h.itlb, pc, now, owner)
	line := h.l1i.LineAddr(pc)
	// One access per fetch group; a 64B line holds four 4-wide groups.
	res := h.l1i.Access(line, 4, false, owner)
	if res.Hit {
		return now + uint64(h.cfg.L1I.HitLatency)
	}
	return h.accessL2(line, now+uint64(h.cfg.L1I.HitLatency), false, owner)
}

// InjectBusTraffic models the memory-bus occupancy of a fast-forwarded OS
// service: n line transfers beginning no earlier than cycle from. If the
// implied transfer time extends past the current bus horizon, subsequent
// accesses queue behind it exactly as they would behind the real traffic.
func (h *Hierarchy) InjectBusTraffic(n int, from uint64) {
	if n <= 0 {
		return
	}
	if h.busFree < from {
		h.busFree = from
	}
	h.busFree += uint64(n) * uint64(h.cfg.BusOccupancy)
	h.dram += uint64(n)
}

// TouchPhantoms replays a fast-forwarded service's per-level working sets:
// `lines` line-granular touches starting at base into each level. The same
// base is reused across invocations of the same service, so the phantom
// working set stays resident when touched repeatedly and displaces other
// lines exactly once — the way the real service's recurring footprint
// behaves (refining paper §4.5's uniform-random eviction model, which
// over-displaces when the service reuses its own lines). Each level replays
// in closed form (cache.TouchLines), so a footprint many times a level's
// capacity costs at most two passes over that level.
func (h *Hierarchy) TouchPhantoms(base uint64, l1i, l1d, l2 int) {
	h.l1i.TouchLines(base, l1i)
	h.l1d.TouchLines(base, l1d)
	h.l2.TouchLines(base, l2)
}

// Snapshot captures the stats of all three levels.
type Snapshot struct {
	L1I, L1D, L2 cache.Stats
}

// Stats returns a snapshot of all levels' counters.
func (h *Hierarchy) Stats() Snapshot {
	return Snapshot{L1I: h.l1i.Stats(), L1D: h.l1d.Stats(), L2: h.l2.Stats()}
}

// Sub returns s - o per level.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{L1I: s.L1I.Sub(o.L1I), L1D: s.L1D.Sub(o.L1D), L2: s.L2.Sub(o.L2)}
}

// Package memsys assembles the memory hierarchy of the simulated machine:
// split L1 instruction/data caches, a unified L2, a split-transaction memory
// bus, and DRAM. It provides latency-resolving access calls for the timing
// cores, with MSHR-style miss overlap and bus-bandwidth contention, and
// mirrors the configuration of the paper's evaluation platform (§5.1).
package memsys

import (
	"math/bits"

	"fssim/internal/cache"
)

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

	// cfg's latencies and L1D line shift, read on every access.
	l1iHit, l1dHit, l2Hit uint64
	memLat, busOcc, walk  uint64
	l1dShift              uint

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

		l1iHit: uint64(cfg.L1I.HitLatency),
		l1dHit: uint64(cfg.L1D.HitLatency),
		l2Hit:  uint64(cfg.L2.HitLatency),
		memLat: uint64(cfg.MemLatency),
		busOcc: uint64(cfg.BusOccupancy),
		walk:   uint64(cfg.WalkLatency),
		// cache.New's block shift: BlockSize rounded up to a power of two.
		l1dShift: uint(bits.Len(uint(cfg.L1D.BlockSize - 1))),
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
	h.busFree = start + h.busOcc
	ready := start + h.memLat
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
	h.busFree = start + h.busOcc
	h.dram++
}

// l1Miss resolves an L1 miss of lineAddr whose L1 lookup ended at cycle now,
// for an access with owner flag owner, and returns the cycle the line is
// available to the L1: the L2 lookup; on an L2 miss the DRAM fill, the L2's
// dirty victim posted to the bus and a next-line prefetch; then the L1's
// displaced way word l1Victim, when dirty, written back into the L2 (posted;
// state change only). l1Victim is an L1D word, or 0.
func (h *Hierarchy) l1Miss(lineAddr, now, l1Victim, owner uint64) uint64 {
	hit, l2Victim := h.l2.AccessFlags(lineAddr, 1, owner)
	avail := now + h.l2Hit
	if !hit {
		avail = h.memFill(lineAddr, avail)
		if l2Victim&cache.FlagDirty != 0 {
			h.writebackToMem(now)
		}
		if h.cfg.Prefetch {
			h.prefetch(lineAddr+uint64(h.cfg.L2.BlockSize), now+h.l2Hit, owner)
		}
	}
	if l1Victim&cache.FlagDirty != 0 {
		h.l2.AccessFlags(h.l1d.WordAddr(l1Victim), 1, owner|cache.FlagDirty)
	}
	return avail
}

// prefetch brings next into the L2 if absent, consuming a bus slot from
// cycle at but delaying no one.
func (h *Hierarchy) prefetch(next, at, owner uint64) {
	if h.l2.Probe(next) {
		return
	}
	o := cache.OwnerApp
	if owner != 0 {
		o = cache.OwnerOS
	}
	h.l2.Fill(next, o)
	h.memFill(next, at)
	h.prefetches++
}

// Data performs a data access of any size at cycle now and returns the cycle
// the data is available. Accesses that straddle line boundaries touch each
// line. Writes are charged to the cache state (write-back, write-allocate)
// but report availability like reads so the store queue can track retirement.
func (h *Hierarchy) Data(addr uint64, size int, now uint64, isWrite bool, owner cache.Owner) uint64 {
	if size <= 0 {
		size = 1
	}
	of := owner.Flag()
	if h.dtlb != nil {
		if hit, _ := h.dtlb.AccessFlags(addr, 1, of); !hit {
			now += h.walk
		}
	}
	flags := of
	if isWrite {
		flags |= cache.FlagDirty
	}
	first := addr >> h.l1dShift << h.l1dShift
	bs := uint64(1) << h.l1dShift
	if addr-first+uint64(size) <= bs {
		// One line, the common case; dataLine never returns before now.
		return h.dataLine(first, uint64(size+7)/8, now, flags, of)
	}
	last := (addr + uint64(size) - 1) >> h.l1dShift << h.l1dShift
	avail := now
	remaining := size
	off := int(addr - first)
	for line := first; ; line += bs {
		span := int(bs) - off
		if span > remaining {
			span = remaining
		}
		a := h.dataLine(line, uint64(span+7)/8, now, flags, of)
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

// dataLine accesses one L1D line with the access's flags; owner is the
// owner flag alone, for the L2.
func (h *Hierarchy) dataLine(lineAddr, words, now, flags, owner uint64) uint64 {
	hit, victim := h.l1d.AccessFlags(lineAddr, words, flags)
	if hit {
		return now + h.l1dHit
	}
	return h.l1Miss(lineAddr, now+h.l1dHit, victim, owner)
}

// Fetch performs an instruction-fetch access for the line containing pc and
// returns the cycle the fetch group is available.
func (h *Hierarchy) Fetch(pc, now uint64, owner cache.Owner) uint64 {
	of := owner.Flag()
	if h.itlb != nil {
		if hit, _ := h.itlb.AccessFlags(pc, 1, of); !hit {
			now += h.walk
		}
	}
	line := h.l1i.LineAddr(pc)
	// One access per fetch group; a 64B line holds four 4-wide groups. An
	// L1I line is never dirty, so its victim needs no write-back.
	if hit, _ := h.l1i.AccessFlags(line, 4, of); hit {
		return now + h.l1iHit
	}
	return h.l1Miss(line, now+h.l1iHit, 0, of)
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
	h.busFree += uint64(n) * h.busOcc
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

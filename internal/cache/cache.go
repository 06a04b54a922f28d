// Package cache implements the set-associative cache model used for the L1
// instruction, L1 data, and unified L2 caches: LRU replacement, write-back
// write-allocate policy, per-line owner tagging (application vs OS), and the
// phantom working-set replay the predictor uses to model OS-induced
// displacement of application working sets (paper §4.5).
package cache

import (
	"fmt"
	"math/bits"
)

// Owner tags who filled a cache line. Phantom working sets replayed for
// fast-forwarded OS services are OS-owned.
type Owner uint8

const (
	OwnerApp Owner = iota
	OwnerOS
)

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int // total bytes
	Assoc      int // ways
	BlockSize  int // bytes per line
	HitLatency int // cycles
}

// Stats counts accesses and misses, split by the owner performing them.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	OSAccesses  uint64
	OSMisses    uint64
	Writebacks  uint64
	Evictions   uint64
	PollutionEv uint64 // lines displaced by injected pollution
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Sub returns s - o component-wise; used to attribute deltas to an interval.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses - o.Accesses, Misses: s.Misses - o.Misses,
		OSAccesses: s.OSAccesses - o.OSAccesses, OSMisses: s.OSMisses - o.OSMisses,
		Writebacks: s.Writebacks - o.Writebacks, Evictions: s.Evictions - o.Evictions,
		PollutionEv: s.PollutionEv - o.PollutionEv,
	}
}

// Add returns s + o component-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses + o.Accesses, Misses: s.Misses + o.Misses,
		OSAccesses: s.OSAccesses + o.OSAccesses, OSMisses: s.OSMisses + o.OSMisses,
		Writebacks: s.Writebacks + o.Writebacks, Evictions: s.Evictions + o.Evictions,
		PollutionEv: s.PollutionEv + o.PollutionEv,
	}
}

// Line state is one word per way slot (set*assoc + way): the block number
// in the low bits and the valid, dirty and owner flags in the top three, so
// the tag scan — the hottest loop in a detailed run — reads one dense uint64
// array (an 8-way set's words share one host cache line). Replacement order
// is one recency word per set: byte w holds way w's rank, 0 = MRU and
// assoc-1 = LRU, so promotion and victim lookup are a few branch-free
// word operations instead of a scan over per-way timestamps.
const (
	flagValid = 1 << 63
	flagDirty = 1 << 62
	flagOS    = 1 << 61 // owner: set = OwnerOS, clear = OwnerApp

	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
	// identityRanks gives way w rank w. Ranks only order valid ways, so any
	// permutation would do; lanes w >= assoc keep rank w forever, which is
	// never below a live way's rank and never equal to assoc-1.
	identityRanks = 0x0706050403020100
)

// Cache is a single set-associative cache level.
type Cache struct {
	cfg      Config
	ways     []uint64 // block number | flag bits, per way slot
	rank     []uint64 // per set: byte w = way w's recency rank, 0 = MRU
	lruRank  uint64   // assoc-1 in every byte lane
	assoc    int
	assocLog uint // assoc = 1 << assocLog
	numSets  int
	blkShift uint
	setMask  uint64
	stats    Stats

	// memo is the key (block number | flagValid) of the line the last
	// Access left MRU, and memoSlot its way slot; 0 when no such line is
	// known. A repeat access to it is a hit that changes only its flags.
	// Every other state change clears it: fill (so Touch, Fill and
	// TouchLines), Invalidate and InvalidateAll.
	memo     uint64
	memoSlot int
	// valid counts valid way slots; once every slot is valid, victim skips
	// its scan for an invalid way.
	valid int
}

func ownerFlag(o Owner) uint64 {
	if o == OwnerOS {
		return flagOS
	}
	return 0
}

// New builds a cache from cfg. Size, Assoc and BlockSize must describe a
// power-of-two number of sets; Assoc must be 1, 2, 4 or 8 (one recency byte
// per way in a 64-bit word, and a set's first way slot is a shift, not a
// multiply, away) and BlockSize at least 8 (block numbers leave the top
// three bits free for the flags).
func New(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.Assoc > 8 || cfg.Assoc&(cfg.Assoc-1) != 0 || cfg.BlockSize < 8 {
		panic(fmt.Sprintf("cache %q: invalid config %+v", cfg.Name, cfg))
	}
	numSets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %q: sets=%d not a power of two", cfg.Name, numSets))
	}
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, numSets: numSets, setMask: uint64(numSets - 1),
		lruRank: uint64(cfg.Assoc-1) * lanes01}
	for s := 1; s < cfg.BlockSize; s <<= 1 {
		c.blkShift++
	}
	for a := 1; a < cfg.Assoc; a <<= 1 {
		c.assocLog++
	}
	c.ways = make([]uint64, numSets*cfg.Assoc)
	c.rank = make([]uint64, numSets)
	for i := range c.rank {
		c.rank[i] = identityRanks
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.blkShift << c.blkShift }

// lookup returns addr's set, that set's way words, and the word a valid line
// holding addr matches once its dirty and owner flags are masked off.
func (c *Cache) lookup(addr uint64) (set int, ways []uint64, key uint64) {
	blk := addr >> c.blkShift
	set = int(blk & c.setMask)
	base := set << c.assocLog
	return set, c.ways[base : base+c.assoc], blk | flagValid
}

// promote returns the recency word x with way made the MRU way: every way
// ranked above it (more recent) moves down one rank, and the rest keep
// theirs. x comes back unchanged when way is already MRU.
func promote(x uint64, way int) uint64 {
	sh := uint(way&7) * 8 // way < 8 already; the mask drops a shift check
	r := x >> sh & 0xFF
	if r == 0 {
		return x
	}
	// (rank_i | 0x80) - r keeps lane i's high bit exactly when rank_i >= r,
	// and never borrows across lanes because ranks are at most 7; below
	// flags the lanes ranked more recent than the promoted way.
	below := ((x|lanes80)-r*lanes01)&lanes80 ^ lanes80
	return (x + below>>7) &^ (0xFF << sh)
}

// victim returns the way a fill replaces: the first invalid way, else the
// LRU way — the lane whose rank is assoc-1, found with a zero-byte test.
// The way it returns is about to hold a valid line.
func (c *Cache) victim(set int, ways []uint64) int {
	if c.valid < len(c.ways) {
		for i, w := range ways {
			if w&flagValid == 0 {
				c.valid++
				return i
			}
		}
	}
	x := c.rank[set] ^ c.lruRank
	return bits.TrailingZeros64((x-lanes01)&^x&lanes80) >> 3
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced by the fill
	EvictedDirty bool   // ... and it was dirty (writeback to next level)
	EvictedAddr  uint64 // line address of the victim
}

// Access looks up addr, fills on miss (LRU victim), and returns the outcome.
// isWrite marks the line dirty; owner tags who performed the access; words
// is the number of word-granularity references the call represents (a 64B
// streaming touch is 8 word accesses but at most one miss), keeping miss
// *rates* comparable to per-reference statistics.
func (c *Cache) Access(addr uint64, words int, isWrite bool, owner Owner) AccessResult {
	if words < 1 {
		words = 1
	}
	c.stats.Accesses += uint64(words)
	if owner == OwnerOS {
		c.stats.OSAccesses += uint64(words)
	}
	flags := ownerFlag(owner)
	if isWrite {
		flags |= flagDirty
	}
	if addr>>c.blkShift|flagValid == c.memo {
		w := &c.ways[c.memoSlot]
		*w = *w&^flagOS | flags
		return AccessResult{Hit: true}
	}
	set, ways, key := c.lookup(addr)
	rank := &c.rank[set]
	x := *rank // loaded ahead of the scan, off the hit's critical path
	for i, w := range ways {
		if w&^(flagDirty|flagOS) == key {
			ways[i] = w&^flagOS | flags
			*rank = promote(x, i)
			c.memo, c.memoSlot = key, set<<c.assocLog+i
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	if owner == OwnerOS {
		c.stats.OSMisses++
	}
	var res AccessResult
	v := c.victim(set, ways)
	if w := ways[v]; w&flagValid != 0 {
		res.Evicted = true
		res.EvictedDirty = w&flagDirty != 0
		res.EvictedAddr = w &^ (flagValid | flagDirty | flagOS) << c.blkShift
		c.stats.Evictions++
		if res.EvictedDirty {
			c.stats.Writebacks++
		}
	}
	ways[v] = key | flags
	*rank = promote(x, v)
	c.memo, c.memoSlot = key, set<<c.assocLog+v
	return res
}

// Probe reports whether addr is present without disturbing LRU state or
// counters. Used by tests and by the warmup checker.
func (c *Cache) Probe(addr uint64) bool {
	_, ways, key := c.lookup(addr)
	for _, w := range ways {
		if w&^(flagDirty|flagOS) == key {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (TLB shootdown / flush semantics).
func (c *Cache) InvalidateAll() {
	clear(c.ways)
	c.valid, c.memo = 0, 0
}

// Invalidate drops addr's line if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	_, ways, key := c.lookup(addr)
	for i, w := range ways {
		if w&^(flagDirty|flagOS) == key {
			ways[i] = 0
			c.valid--
			c.memo = 0
			return true, w&flagDirty != 0
		}
	}
	return false, false
}

// Touch performs an uncounted fill of addr's line: a lookup that, on miss,
// installs the line over the LRU victim (preferring invalid ways) without
// perturbing the access/miss statistics. The pollution injector uses it to
// replay a fast-forwarded OS service's working set: the service's phantom
// lines compete for capacity like the real lines would have, but the
// predicted miss counts — which are accounted separately — are not
// double-counted. A displaced valid line counts as a pollution eviction.
func (c *Cache) Touch(addr uint64) { c.fill(addr, flagOS, true) }

// Fill is Touch for a hardware prefetch: the line is tagged with the
// requester's owner and a displaced line is not counted as pollution.
func (c *Cache) Fill(addr uint64, owner Owner) { c.fill(addr, ownerFlag(owner), false) }

func (c *Cache) fill(addr, flags uint64, polluting bool) {
	c.memo = 0
	set, ways, key := c.lookup(addr)
	for i, w := range ways {
		if w&^(flagDirty|flagOS) == key {
			ways[i] = w&^flagOS | flags
			c.rank[set] = promote(c.rank[set], i)
			return
		}
	}
	v := c.victim(set, ways)
	if polluting && ways[v]&flagValid != 0 {
		c.stats.PollutionEv++
	}
	ways[v] = key | flags
	c.rank[set] = promote(c.rank[set], v)
}

// TouchLines leaves exactly the state n calls to Touch(base + i*BlockSize)
// leave — way words, recency words and PollutionEv — in O(min(n, 2·lines))
// time. The lines are distinct and sets independent, so each set replays
// its own lines L_0, L_1, … (block numbers stepping by numSets). After its
// first A = assoc touches a set holds exactly L_0..L_{A-1} (the LRU stack
// property); each later touch misses and evicts L_{j-A} from the same way,
// and the recency word repeats every A misses. Skipping k such touches, k a
// multiple of A, thus only adds k·numSets to every way word's block number
// (the new lines are clean) and k to PollutionEv; the rest run exactly.
func (c *Cache) TouchLines(base uint64, n int) {
	if n <= 2*len(c.ways) {
		for i := 0; i < n; i++ {
			c.Touch(base + uint64(i)<<c.blkShift)
		}
		return
	}
	first := base >> c.blkShift
	sets, assoc := uint64(c.numSets), uint64(c.assoc)
	for s := uint64(0); s < sets; s++ {
		// m >= 2A touches (n > 2·lines) land in this set: blocks
		// first+s, first+s+sets, …
		m := (uint64(n) - s + sets - 1) / sets
		blk := first + s
		for j := uint64(0); j < assoc; j++ {
			c.Touch((blk + j*sets) << c.blkShift)
		}
		k := (m - assoc) / assoc * assoc
		_, ways, _ := c.lookup(blk << c.blkShift)
		for w := range ways {
			ways[w] = ways[w]&^flagDirty + k*sets
		}
		c.stats.PollutionEv += k
		for j := assoc + k; j < m; j++ {
			c.Touch((blk + j*sets) << c.blkShift)
		}
	}
}

// OwnedLines counts valid lines per owner; used by tests and diagnostics.
func (c *Cache) OwnedLines() (app, os int) {
	for _, w := range c.ways {
		switch {
		case w&flagValid == 0:
		case w&flagOS == 0:
			app++
		default:
			os++
		}
	}
	return
}

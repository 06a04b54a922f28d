package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the stamp-based LRU model the packed cache replaced: separate
// tag, last-touch-stamp and flag arrays, and a victim scan for the smallest
// stamp. FuzzCacheReference drives both through the same operations.
type refCache struct {
	tags, lru []uint64
	meta      []uint8
	assoc     int
	numSets   int
	blkShift  uint
	setMask   uint64
	stamp     uint64
	stats     Stats
}

const (
	refValid = 1 << iota
	refDirty
	refOS
)

func newRef(cfg Config) *refCache {
	numSets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	r := &refCache{assoc: cfg.Assoc, numSets: numSets, setMask: uint64(numSets - 1)}
	for s := 1; s < cfg.BlockSize; s <<= 1 {
		r.blkShift++
	}
	r.tags = make([]uint64, numSets*cfg.Assoc)
	r.lru = make([]uint64, numSets*cfg.Assoc)
	r.meta = make([]uint8, numSets*cfg.Assoc)
	return r
}

func refOwner(o Owner) uint8 {
	if o == OwnerOS {
		return refOS
	}
	return 0
}

func (r *refCache) find(addr uint64) (base int, tag uint64, hit int) {
	blk := addr >> r.blkShift
	base = int(blk&r.setMask) * r.assoc
	for i := 0; i < r.assoc; i++ {
		if r.tags[base+i] == blk && r.meta[base+i]&refValid != 0 {
			return base, blk, i
		}
	}
	return base, blk, -1
}

// victim is the original fused scan: the first invalid way, else the
// earliest way with the smallest stamp.
func (r *refCache) victim(base int) (way int, filled bool) {
	for i := 0; i < r.assoc; i++ {
		if r.meta[base+i]&refValid == 0 {
			return i, true
		}
		if r.lru[base+i] < r.lru[base+way] {
			way = i
		}
	}
	return way, false
}

func (r *refCache) Access(addr uint64, words int, isWrite bool, owner Owner) AccessResult {
	if words < 1 {
		words = 1
	}
	r.stamp++
	r.stats.Accesses += uint64(words)
	if owner == OwnerOS {
		r.stats.OSAccesses += uint64(words)
	}
	m := refOwner(owner)
	if isWrite {
		m |= refDirty
	}
	base, tag, hit := r.find(addr)
	if hit >= 0 {
		j := base + hit
		r.lru[j] = r.stamp
		r.meta[j] = r.meta[j]&^refOS | m
		return AccessResult{Hit: true}
	}
	r.stats.Misses++
	if owner == OwnerOS {
		r.stats.OSMisses++
	}
	v, filled := r.victim(base)
	j := base + v
	var res AccessResult
	if !filled {
		res.Evicted = true
		res.EvictedDirty = r.meta[j]&refDirty != 0
		res.EvictedAddr = r.tags[j] << r.blkShift
		r.stats.Evictions++
		if res.EvictedDirty {
			r.stats.Writebacks++
		}
	}
	r.tags[j], r.lru[j], r.meta[j] = tag, r.stamp, refValid|m
	return res
}

func (r *refCache) fill(addr uint64, m uint8, polluting bool) {
	r.stamp++
	base, tag, hit := r.find(addr)
	if hit >= 0 {
		r.lru[base+hit] = r.stamp
		r.meta[base+hit] = r.meta[base+hit]&^refOS | m
		return
	}
	v, filled := r.victim(base)
	if polluting && !filled {
		r.stats.PollutionEv++
	}
	r.tags[base+v], r.lru[base+v], r.meta[base+v] = tag, r.stamp, refValid|m
}

func (r *refCache) Invalidate(addr uint64) (present, dirty bool) {
	base, _, hit := r.find(addr)
	if hit < 0 {
		return false, false
	}
	j := base + hit
	d := r.meta[j]&refDirty != 0
	r.tags[j], r.lru[j], r.meta[j] = 0, 0, 0
	return true, d
}

func (r *refCache) InvalidateAll() {
	clear(r.tags)
	clear(r.lru)
	clear(r.meta)
}

func (r *refCache) Probe(addr uint64) bool {
	_, _, hit := r.find(addr)
	return hit >= 0
}

func (r *refCache) OwnedLines() (app, os int) {
	for _, m := range r.meta {
		switch {
		case m&refValid == 0:
		case m&refOS == 0:
			app++
		default:
			os++
		}
	}
	return
}

// sameState reports where c's way words and recency words differ from the
// reference's tags, flags and stamps: every slot must hold the same block
// and flags (an invalid slot is all zero on both sides), and among a set's
// valid ways rank order must be stamp order, most recent first.
func sameState(c *Cache, r *refCache) error {
	for i, w := range c.ways {
		var want uint64
		if m := r.meta[i]; m&refValid != 0 {
			want = r.tags[i] | flagValid
			if m&refDirty != 0 {
				want |= FlagDirty
			}
			if m&refOS != 0 {
				want |= FlagOS
			}
		}
		if w != want {
			return fmt.Errorf("way slot %d = %#x, reference %#x", i, w, want)
		}
	}
	for set, x := range c.rank {
		base := set * c.assoc
		for a := 0; a < c.assoc; a++ {
			for b := 0; b < c.assoc; b++ {
				if r.meta[base+a]&refValid == 0 || r.meta[base+b]&refValid == 0 {
					continue
				}
				ra, rb := x>>(8*a)&0xFF, x>>(8*b)&0xFF
				if (ra < rb) != (r.lru[base+a] > r.lru[base+b]) {
					return fmt.Errorf("set %d: ways %d, %d ranked %d, %d, reference stamps %d, %d",
						set, a, b, ra, rb, r.lru[base+a], r.lru[base+b])
				}
			}
		}
	}
	return nil
}

// FuzzCacheReference checks the packed cache (flag-folded way words, per-set
// recency ranks, last-line memo, valid-way count) against the stamp-based
// reference on random operation sequences at associativity 1, 2, 4 and 8:
// every AccessResult, Stats, Probe, Invalidate and OwnedLines must match
// after every operation, and so must every way word and recency order.
// TouchLines is checked against one reference Touch per line, at
// line-aligned bases with random set offsets and up to 8x the cache's
// capacity, so both its per-line and its closed-form paths run. An
// operation with bit 3 set targets the address of the previous Access
// instead of a fresh one: repeated accesses (reads and writes, either
// owner) take the memo path, with fills, invalidations and replays of that
// line or of others in between.
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 9, 9, 9, 9, 9, 9})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 512, 4096} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	// One seed per associativity in which every third operation is a
	// TouchLines, interleaved with the accesses and invalidations that
	// leave sets partly empty, dirty or holding lines the replay hits.
	for assoc := byte(0); assoc < 4; assoc++ {
		b := make([]byte, 1+4*96)
		rng.Read(b)
		b[0] = assoc
		for i := 1; i < len(b); i += 12 {
			b[i] = 5
		}
		f.Add(b)
	}
	// One seed per associativity that mostly repeats the previous access,
	// with every other operation kind between repeats and an occasional
	// TouchLines over the whole cache, so the valid-way count reaches full
	// and Invalidate must bring it back down.
	for assoc := byte(0); assoc < 4; assoc++ {
		b := make([]byte, 1+4*256)
		rng.Read(b)
		b[0] = assoc
		for i := 1; i < len(b); i += 4 {
			switch r := rng.Intn(16); {
			case r < 7: // repeat: a read or write by either owner
				b[i] = 8 | byte(rng.Intn(3))
			case r < 9: // a fresh access
				b[i] = byte(rng.Intn(3))
			case r == 15: // a replay of 8x the cache's lines
				n := 64 << assoc
				b[i], b[i+2], b[i+3] = 5, byte(n>>8), byte(n)
			default: // Touch, Fill, TouchLines, Invalidate, InvalidateAll, fresh or repeated
				b[i] = byte(3+rng.Intn(5)) | byte(rng.Intn(2))<<3
				b[i+1] &^= byte(rng.Intn(2)) * 63 // a0 = 0 often enough for InvalidateAll
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		assoc := 1 << (data[0] & 3)
		cfg := Config{Name: "fuzz", Size: assoc * 64 * 8, Assoc: assoc, BlockSize: 64}
		c, ref := New(cfg), newRef(cfg)
		data = data[1:]
		var last uint64 // the previous Access's address
		for len(data) >= 4 {
			op, a0, a1, a2 := data[0], data[1], data[2], data[3]
			data = data[4:]
			// 64 lines over 8 sets keeps hits and evictions frequent; a2's
			// top bits occasionally move the line far away (still < 2^56).
			addr := uint64(a0&63)<<6 | uint64(a1&63) | uint64(a2>>5)<<53
			if op&8 != 0 {
				addr = last
			}
			owner := Owner(a1 >> 7)
			switch op % 8 {
			case 0, 1, 2:
				last = addr
				words, isWrite := int(a2&7), a1&64 != 0
				if got, want := c.Access(addr, words, isWrite, owner), ref.Access(addr, words, isWrite, owner); got != want {
					t.Fatalf("Access(%#x, %d, %v, %d) = %+v, reference %+v", addr, words, isWrite, owner, got, want)
				}
			case 3:
				c.Touch(addr)
				ref.fill(addr, refOS, true)
			case 4:
				c.Fill(addr, owner)
				ref.fill(addr, refOwner(owner), false)
			case 5:
				// Up to 8x the 8·assoc lines; the base keeps addr's set
				// offset and tag, so the run may hit lines already present.
				base, n := addr&^63, (int(a1)<<8|int(a2))%(64*assoc+1)
				c.TouchLines(base, n)
				for i := 0; i < n; i++ {
					ref.fill(base+uint64(i)*64, refOS, true)
				}
			case 6:
				gp, gd := c.Invalidate(addr)
				wp, wd := ref.Invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("Invalidate(%#x) = (%v, %v), reference (%v, %v)", addr, gp, gd, wp, wd)
				}
			case 7:
				if a0 == 0 {
					c.InvalidateAll()
					ref.InvalidateAll()
				}
			}
			if got, want := c.Stats(), ref.stats; got != want {
				t.Fatalf("after op %d at %#x: stats %+v, reference %+v", op%8, addr, got, want)
			}
			if got, want := c.Probe(addr), ref.Probe(addr); got != want {
				t.Fatalf("after op %d: Probe(%#x) = %v, reference %v", op%8, addr, got, want)
			}
			ga, gos := c.OwnedLines()
			wa, wos := ref.OwnedLines()
			if ga != wa || gos != wos {
				t.Fatalf("after op %d: OwnedLines = (%d, %d), reference (%d, %d)", op%8, ga, gos, wa, wos)
			}
			if err := sameState(c, ref); err != nil {
				t.Fatalf("after op %d at %#x: %v", op%8, addr, err)
			}
		}
	})
}

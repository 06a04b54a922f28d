package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	return New(Config{Name: "t", Size: 4096, Assoc: 4, BlockSize: 64, HitLatency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := testCache()
	if r := c.Access(0x1000, 1, false, OwnerApp); r.Hit {
		t.Fatal("cold access should miss")
	}
	if r := c.Access(0x1000, 1, false, OwnerApp); !r.Hit {
		t.Fatal("second access should hit")
	}
	if r := c.Access(0x1030, 1, false, OwnerApp); !r.Hit {
		t.Fatal("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWordCounting(t *testing.T) {
	c := testCache()
	c.Access(0x2000, 8, false, OwnerApp) // one 64B streaming touch
	st := c.Stats()
	if st.Accesses != 8 || st.Misses != 1 {
		t.Fatalf("want 8 accesses / 1 miss, got %+v", st)
	}
	if mr := st.MissRate(); mr != 0.125 {
		t.Fatalf("miss rate = %v", mr)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := testCache() // 16 sets, 4 ways
	// Five lines mapping to the same set (stride = sets*block = 1024).
	base := uint64(0x8000)
	for i := uint64(0); i < 4; i++ {
		c.Access(base+i*1024, 1, false, OwnerApp)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(base, 1, false, OwnerApp)
	r := c.Access(base+4*1024, 1, false, OwnerApp) // evicts line 1
	if !r.Evicted || r.EvictedAddr != base+1024 {
		t.Fatalf("expected eviction of %#x, got %+v", base+1024, r)
	}
	if !c.Probe(base) {
		t.Error("recently used line evicted")
	}
	if c.Probe(base + 1024) {
		t.Error("LRU line still present")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := testCache()
	base := uint64(0x8000)
	c.Access(base, 1, true, OwnerApp) // dirty
	for i := uint64(1); i <= 4; i++ {
		c.Access(base+i*1024, 1, false, OwnerApp)
	}
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("want 1 writeback, got %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache()
	c.Access(0x40, 1, true, OwnerOS)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v, %v)", present, dirty)
	}
	if c.Probe(0x40) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestOwnerTracking(t *testing.T) {
	c := testCache()
	c.Access(0x100, 1, false, OwnerApp)
	c.Access(0x200, 1, false, OwnerOS)
	app, os := c.OwnedLines()
	if app != 1 || os != 1 {
		t.Fatalf("owned = (%d, %d)", app, os)
	}
	// Re-access by the other owner re-tags.
	c.Access(0x100, 1, false, OwnerOS)
	app, os = c.OwnedLines()
	if app != 0 || os != 2 {
		t.Fatalf("after re-tag owned = (%d, %d)", app, os)
	}
}

func TestInjectPollutionDisplacesApp(t *testing.T) {
	c := testCache()
	// Fill the whole cache with app lines.
	for i := uint64(0); i < 64; i++ {
		c.Access(0x10000+i*64, 1, false, OwnerApp)
	}
	rng := rand.New(rand.NewSource(1))
	c.InjectPollution(64, rng)
	app, os := c.OwnedLines()
	if os == 0 {
		t.Fatal("pollution installed no OS lines")
	}
	if app == 64 {
		t.Fatal("pollution displaced nothing")
	}
	if ev := c.Stats().PollutionEv; ev == 0 {
		t.Fatal("pollution eviction counter not incremented")
	}
}

// TestInjectPollutionPrefersInvalid checks that pollution consumes empty
// ways before displacing live lines (paper §4.5's victim order).
func TestInjectPollutionPrefersInvalid(t *testing.T) {
	c := testCache()
	c.Access(0x40, 1, false, OwnerApp) // one line in one set
	rng := rand.New(rand.NewSource(2))
	c.InjectPollution(48, rng) // fewer injections than empty ways
	if !c.Probe(0x40) {
		// With 63 invalid ways and 48 injections, displacing the only live
		// line means invalid ways were not preferred.
		t.Error("live line displaced while invalid ways remained")
	}
}

// TestPollutionPhantomsDontAlias checks pollution placeholder lines never
// match real addresses.
func TestPollutionPhantomsDontAlias(t *testing.T) {
	c := testCache()
	rng := rand.New(rand.NewSource(3))
	c.InjectPollution(256, rng)
	misses := c.Stats().Misses
	for i := uint64(0); i < 64; i++ {
		c.Access(0x20000+i*64, 1, false, OwnerApp)
	}
	if got := c.Stats().Misses - misses; got != 64 {
		t.Errorf("fresh lines after pollution: want 64 misses, got %d", got)
	}
}

// TestCacheInclusionProperty property-checks a basic invariant: immediately
// re-accessing any address hits, regardless of history.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCache()
		for i := 0; i < int(ops)+10; i++ {
			addr := uint64(rng.Intn(1 << 20))
			c.Access(addr, 1, rng.Intn(2) == 0, OwnerApp)
			if r := c.Access(addr, 1, false, OwnerApp); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStatsConservation property-checks counter consistency: misses never
// exceed accesses; evictions never exceed misses; valid lines <= capacity.
func TestStatsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCache()
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(64<<10))&^7, 1+rng.Intn(8), rng.Intn(3) == 0, Owner(rng.Intn(2)))
		}
		st := c.Stats()
		app, os := c.OwnedLines()
		return st.Misses <= st.Accesses &&
			st.Evictions <= st.Misses &&
			st.Writebacks <= st.Evictions &&
			app+os <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for why, cfg := range map[string]Config{
		"non-power-of-two set count": {Name: "bad", Size: 3000, Assoc: 4, BlockSize: 64},
		"non-power-of-two ways":      {Name: "bad", Size: 12288, Assoc: 3, BlockSize: 64},
		"more than 8 ways":           {Name: "bad", Size: 1 << 20, Assoc: 16, BlockSize: 64},
		"blocks too small for flags": {Name: "bad", Size: 4096, Assoc: 4, BlockSize: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", why)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 4, Writebacks: 1, Evictions: 2}
	b := Stats{Accesses: 3, Misses: 1, Writebacks: 0, Evictions: 1}
	d := a.Sub(b)
	if d.Accesses != 7 || d.Misses != 3 || d.Evictions != 1 {
		t.Errorf("sub = %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Errorf("add(sub) != original: %+v", s)
	}
}

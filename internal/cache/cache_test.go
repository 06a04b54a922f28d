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

// phantomBase is a line-aligned address far above any app line, as the
// machine's per-service phantom ranges are.
const phantomBase = 0xF000_0000_0000_0000

// TestTouchLinesDisplacesApp checks that replayed phantom lines are
// OS-owned and that each valid line they displace counts one pollution
// eviction, on the per-line path (n within two passes over the cache) and
// the closed-form path.
func TestTouchLinesDisplacesApp(t *testing.T) {
	for _, n := range []int{32, 64*5 + 7} {
		c := testCache()
		// Fill the whole cache with app lines.
		for i := uint64(0); i < 64; i++ {
			c.Access(0x10000+i*64, 1, false, OwnerApp)
		}
		c.TouchLines(phantomBase, n)
		app, os := c.OwnedLines()
		if want := min(n, 64); os != want || app != 64-want {
			t.Errorf("n=%d: owned (app %d, os %d), want (%d, %d)", n, app, os, 64-want, want)
		}
		// Every phantom touch misses a full cache and displaces a valid line.
		if ev := c.Stats().PollutionEv; ev != uint64(n) {
			t.Errorf("n=%d: %d pollution evictions, want %d", n, ev, n)
		}
		if st := c.Stats(); st.Accesses != 64 || st.Misses != 64 {
			t.Errorf("n=%d: phantom touches were counted as accesses: %+v", n, st)
		}
	}
}

// TestTouchLinesPrefersInvalid checks that phantom lines consume empty ways
// before displacing live lines (paper §4.5's victim order).
func TestTouchLinesPrefersInvalid(t *testing.T) {
	c := testCache()
	c.Access(0x40, 1, false, OwnerApp) // one line in set 1
	c.TouchLines(phantomBase, 48)      // three lines per set, one way spare
	if !c.Probe(0x40) {
		t.Error("live line displaced while invalid ways remained")
	}
	if ev := c.Stats().PollutionEv; ev != 0 {
		t.Errorf("%d pollution evictions while invalid ways remained", ev)
	}
	// The closed form too: of 64*3 + 5 misses, the first 63 — one per
	// invalid way — displace nothing.
	c = testCache()
	c.Access(0x40, 1, false, OwnerApp)
	c.TouchLines(phantomBase, 64*3+5)
	if ev, want := c.Stats().PollutionEv, uint64(64*3+5-63); ev != want {
		t.Errorf("closed form: %d pollution evictions, want %d", ev, want)
	}
}

// TestPollutionPhantomsDontAlias checks phantom lines never match real
// addresses.
func TestPollutionPhantomsDontAlias(t *testing.T) {
	c := testCache()
	c.TouchLines(phantomBase, 256)
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

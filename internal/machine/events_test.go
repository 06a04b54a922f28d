package machine

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEventSize pins the heap element at five words: an op code and two
// payload words, with no closure pointer for the GC to scan.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

// TestEventHeapOrder pins the typed heap's comparator directly: events pop
// in (at, seq) order no matter the insertion order. The tie-break matters
// for determinism — simultaneous events (a timer tick and a disk completion
// due the same cycle) must fire in scheduling order on every run.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var evs []event
	var seq uint64
	for _, at := range []uint64{40, 10, 10, 25, 40, 10, 0, 25} {
		seq++
		evs = append(evs, event{at: at, seq: seq, op: 0, a: seq})
	}
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		var q eventQueue
		for _, e := range evs {
			q.push(e)
		}
		want := append([]event(nil), evs...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i := range want {
			got := q.pop()
			if got.at != want[i].at || got.seq != want[i].seq {
				t.Fatalf("trial %d pop %d: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, got.at, got.seq, want[i].at, want[i].seq)
			}
		}
		if len(q) != 0 {
			t.Fatalf("queue not drained: %d left", len(q))
		}
	}
}

// TestScheduleTieBreakFIFO asserts the machine-level contract built on the
// heap comparator: events for different handlers scheduled for the same
// cycle interleave in exact scheduling order, because they all draw from the
// one per-machine sequence counter.
func TestScheduleTieBreakFIFO(t *testing.T) {
	m := New(DefaultConfig())
	var order []int
	even := m.RegisterOp(func(a, _ uint64) { order = append(order, int(a)) })
	odd := m.RegisterOp(func(_, b uint64) { order = append(order, int(b)) })
	const at = 100
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			m.ScheduleOp(at, even, uint64(i), 0)
		} else {
			m.ScheduleOp(at, odd, 0, uint64(i))
		}
	}
	if !m.AdvanceIdle() {
		t.Fatal("AdvanceIdle found nothing to fire")
	}
	if len(order) != 12 {
		t.Fatalf("fired %d events, want 12", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order %v: position %d is event %d", order, i, id)
		}
	}
}

// pendingEv mirrors one scheduled event in the fuzz oracle.
type pendingEv struct {
	at, seq uint64
	id      int
}

// FuzzEventQueue interleaves scheduling on two registered handlers —
// one carrying its state in the payload words, one in a Slab slot —
// (including deliberate same-cycle ties and past due-times) with idle
// advances, against a reference model: every event must fire exactly once —
// never dropped, never twice — and the global fire sequence must follow
// (at, seq) order. Half the corpus runs with PoisonPools set, so vacated
// heap slots are scrubbed with loud garbage: a pop that reads a recycled
// slot would fire a poisoned event and break the oracle.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 4, 0, 2, 1, 3, 7, 4, 0}, false)
	f.Add([]byte{2, 0, 2, 0, 4, 0, 0, 255, 4, 0, 4, 0}, true)
	f.Add([]byte{3, 0, 3, 200, 1, 1, 4, 9, 0, 0, 4, 4}, true)
	f.Fuzz(func(t *testing.T, data []byte, poison bool) {
		old := PoisonPools
		PoisonPools = poison
		defer func() { PoisonPools = old }()

		m := New(DefaultConfig())
		var fired []pendingEv
		var expect []pendingEv
		ids := 0
		op := m.RegisterOp(func(a, b uint64) {
			fired = append(fired, pendingEv{at: b, id: int(a)})
		})
		var slab Slab[pendingEv]
		slabOp := m.RegisterOp(func(slot, _ uint64) {
			fired = append(fired, slab.Take(slot))
		})
		add := func(at uint64, slabbed bool) {
			id := ids
			ids++
			if slabbed {
				m.ScheduleOp(at, slabOp, slab.Put(pendingEv{at: at, id: id}), 0)
			} else {
				m.ScheduleOp(at, op, uint64(id), at)
			}
			expect = append(expect, pendingEv{at: at, seq: m.eventSeq, id: id})
		}
		// checkAdvance mirrors one AdvanceIdle against the oracle: time jumps
		// to the earliest pending event and everything due by then fires in
		// (at, seq) order.
		checkAdvance := func() {
			before := len(fired)
			if len(expect) == 0 {
				if m.AdvanceIdle() {
					t.Fatal("AdvanceIdle fired with no events scheduled")
				}
				return
			}
			if !m.AdvanceIdle() {
				t.Fatalf("AdvanceIdle reported idle with %d events pending", len(expect))
			}
			now := m.Now()
			var due, later []pendingEv
			for _, p := range expect {
				if p.at <= now {
					due = append(due, p)
				} else {
					later = append(later, p)
				}
			}
			sort.Slice(due, func(i, j int) bool {
				if due[i].at != due[j].at {
					return due[i].at < due[j].at
				}
				return due[i].seq < due[j].seq
			})
			got := fired[before:]
			if len(got) != len(due) {
				t.Fatalf("advance fired %d events, oracle expected %d (now=%d)",
					len(got), len(due), now)
			}
			for i := range due {
				if got[i].id != due[i].id {
					t.Fatalf("fire %d: got event %d (at=%d), oracle expected %d (at=%d seq=%d)",
						before+i, got[i].id, got[i].at, due[i].id, due[i].at, due[i].seq)
				}
			}
			expect = later
			if m.PendingEvents() != len(expect) {
				t.Fatalf("PendingEvents = %d, oracle has %d", m.PendingEvents(), len(expect))
			}
		}

		for i := 0; i+1 < len(data) && ids < 4096; i += 2 {
			cmd, arg := data[i], uint64(data[i+1])
			switch cmd % 5 {
			case 0: // op event in the near future
				add(m.Now()+arg, false)
			case 1: // slab event, tighter spread to force collisions
				add(m.Now()+arg%32, true)
			case 2: // three same-cycle ties
				at := m.Now() + arg%4
				add(at, false)
				add(at, true)
				add(at, false)
			case 3: // absolute time: possibly already past due
				add(arg, false)
			case 4:
				checkAdvance()
			}
		}
		for len(expect) > 0 {
			checkAdvance()
		}
		if m.AdvanceIdle() {
			t.Fatal("drained queue still fired")
		}
		if len(fired) != ids {
			t.Fatalf("%d events scheduled, %d fired", ids, len(fired))
		}
		seen := make(map[int]bool, len(fired))
		for _, p := range fired {
			if seen[p.id] {
				t.Fatalf("event %d fired twice", p.id)
			}
			seen[p.id] = true
		}
	})
}

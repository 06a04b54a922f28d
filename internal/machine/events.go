package machine

// The event queue is the hot heart of the device model: every disk
// completion, packet arrival, timer tick and sleep wakeup passes through it,
// interleaved with the instruction stream at a rate of thousands of events
// per simulated second. Two properties keep it allocation-free in steady
// state:
//
//   - Events are plain values in a typed binary heap. There is no
//     container/heap interface{} boxing, so pushing and popping never
//     allocates (beyond amortized slice growth, which stops once the queue
//     has reached its high-water mark).
//
//   - Every event is op-dispatched: a typed op code naming a handler in the
//     machine's per-machine jump table plus two payload words. The handler
//     closure is allocated once at registration; per-event state rides in
//     the payload (an index into a caller-owned slab when it is more than
//     two words). Events carry no pointers, so the heap is pointer-free.
//
// Determinism: events fire in (at, seq) order, seq being a per-machine
// counter, so each machine's event order is a pure function of its own
// scheduling history regardless of heap internals or parallelism.

// EventOp names a handler registered in the machine's dispatch table.
type EventOp int32

// event is a scheduled device callback: a registered op with two payload
// words.
type event struct {
	at  uint64
	seq uint64 // tie-break for determinism
	op  EventOp
	a   uint64
	b   uint64
}

// eventQueue is a typed binary min-heap over value events ordered by
// (at, seq). It replaces container/heap to avoid the interface{} boxing
// allocation on every Push/Pop.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	if PoisonPools {
		// Scrub the vacated slot so any read of recycled heap backing is
		// loud garbage rather than a plausible stale event.
		h[n] = event{at: ^uint64(0), seq: ^uint64(0), op: -2,
			a: 0xDEADDEADDEADDEAD, b: 0xDEADDEADDEADDEAD}
	}
	h = h[:n]
	*q = h
	// Sift the relocated tail element down to its place.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(r, l) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// PoisonPools, when set (tests only), makes every pooled or free-listed
// record in the simulator — vacated event-heap slots, recycled kernel
// scratch, per-machine measurement/prediction buffers — get overwritten
// with loud garbage at release time. The determinism suites run with this
// enabled to prove that record reuse never leaks state across intervals,
// runs, or machines: if any consumer reads a recycled record before its
// producer fully rewrites it, the poison changes the simulation's output
// and the byte-identity tests fail.
var PoisonPools bool

// PoisonPattern is the word pooled records are scrubbed with.
const PoisonPattern uint64 = 0xDEADDEADDEADDEAD

// RegisterOp adds a handler to the machine's event dispatch table and
// returns its op code for ScheduleOp. Handlers receive the two payload
// words the event was scheduled with. Registration happens at setup time
// (kernel construction, device attach); the returned op is stable for the
// machine's lifetime.
func (m *Machine) RegisterOp(h func(a, b uint64)) EventOp {
	m.ops = append(m.ops, h)
	return EventOp(len(m.ops) - 1)
}

// Slab is a free-listed table for event payloads that do not fit in two
// words: Put parks a value and returns the slot index to schedule as a
// payload word, and the handler's Take returns the value and recycles the
// slot. Slots are reused LIFO, so a slab stops allocating once it reaches
// its high-water mark.
type Slab[T any] struct {
	items []T
	free  []int32
}

// Put stores v in a free slot and returns the slot's index.
func (s *Slab[T]) Put(v T) uint64 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = v
		return uint64(i)
	}
	s.items = append(s.items, v)
	return uint64(len(s.items) - 1)
}

// Take returns the value in slot i and frees the slot. The slot is cleared
// to the zero value, so a stale read of a recycled slot sees no reference
// to the value that was in it.
func (s *Slab[T]) Take(i uint64) T {
	v := s.items[i]
	var zero T
	s.items[i] = zero
	s.free = append(s.free, int32(i))
	return v
}

// ScheduleOp runs the registered handler op with payload words a and b when
// the global cycle counter reaches cycle `at` (immediately at the next
// instruction boundary if `at` is already past). Device models use this for
// disk completions, packet arrivals and timer ticks; handlers typically
// raise an interrupt via the kernel. The tie-break sequence is per-machine
// so that concurrently running machines stay race-free and each machine's
// event order is a pure function of its own history. The event is a plain
// value — no closure, no boxing — so scheduling performs zero heap
// allocations.
func (m *Machine) ScheduleOp(at uint64, op EventOp, a, b uint64) {
	m.eventSeq++
	m.events.push(event{at: at, seq: m.eventSeq, op: op, a: a, b: b})
	if at < m.next {
		m.next = at
	}
}

// ScheduleOpAfter schedules a registered handler delay cycles from now.
func (m *Machine) ScheduleOpAfter(delay uint64, op EventOp, a, b uint64) {
	m.ScheduleOp(m.core.Now()+delay, op, a, b)
}

// pollEvents fires all due events (unless a delivery is already on the
// stack). Events fire even while an interval is being fast-forwarded: the
// functional side of device completions — pages becoming uptodate, packets
// arriving, threads waking — must proceed for emulated services exactly as
// for detailed ones; only their handler instructions bypass the timing
// models.
func (m *Machine) pollEvents() {
	if m.delivering {
		return
	}
	m.delivering = true
	for len(m.events) > 0 && m.events[0].at <= m.core.Now() {
		e := m.events.pop()
		m.ops[e.op](e.a, e.b)
	}
	if len(m.events) > 0 {
		m.next = m.events[0].at
	} else {
		m.next = ^uint64(0)
	}
	m.delivering = false
}

// PendingEvents reports the number of scheduled events.
func (m *Machine) PendingEvents() int { return len(m.events) }

// AdvanceIdle is called by the scheduler when no context is runnable: it
// skips the clock forward to the next pending event and fires it. It reports
// false if there is nothing to wait for (which would be a workload hang).
func (m *Machine) AdvanceIdle() bool {
	if len(m.events) == 0 {
		return false
	}
	// An idle gap ends any open application interval: the CPU is waiting, not
	// executing user code, and idle time depends on global machine state — if
	// it leaked into app intervals, their cycle counts would be dominated by
	// wait time no per-instruction estimator could predict. App intervals are
	// therefore maximal user-mode stretches *between* idle gaps; a new one
	// opens at the next user-mode instruction.
	m.FinishApp()
	at := m.events[0].at
	if at > m.core.Now() {
		m.core.SkipTo(at)
	}
	m.pollEvents()
	return true
}

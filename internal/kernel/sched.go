package kernel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"

	"fssim/internal/isa"
	"fssim/internal/machine"
)

// tstate is a thread's scheduler state.
type tstate int

const (
	tRunnable tstate = iota
	tRunning
	tBlocked
	tDead
)

// Thread is one simulated kernel-scheduled thread of execution. Each thread
// runs on its own goroutine; a strict handoff protocol guarantees exactly one
// goroutine drives the machine at any moment, so the simulation stays
// single-threaded and deterministic.
type Thread struct {
	k     *Kernel
	id    int
	name  string
	body  func(*Proc)
	proc  *Proc
	state tstate

	resume chan struct{}
	parked chan struct{}

	// Saved execution context while not running.
	depth    int
	cursor   machine.Cursor
	svcStack []isa.ServiceID // services this thread is nested in

	quantumLeft int
	taskAddr    uint64 // simulated address of the task struct
	exitWaiters *WaitQueue
	// parkPC is the caller PC of the thread's last blocking park (0 =
	// preempted, not blocked). The "file:line" string is only materialized
	// on the diagnostics path, so steady-state blocking allocates nothing.
	parkPC uintptr
}

// parkSite renders the thread's last park location for diagnostics.
func (t *Thread) parkSite() string {
	if t.parkPC == 0 {
		return "preempt"
	}
	frames := runtime.CallersFrames([]uintptr{t.parkPC})
	f, _ := frames.Next()
	if f.File == "" {
		return "?"
	}
	file := f.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, f.Line)
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// SetEntry overrides the thread's user-code entry PC (before it first runs),
// letting threads of the same program share text — and therefore I-cache
// lines — the way forked server workers do.
func (t *Thread) SetEntry(pc uint64) { t.cursor.PC = pc }

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

func (t *Thread) pushSvc(s isa.ServiceID) { t.svcStack = append(t.svcStack, s) }
func (t *Thread) popSvc() {
	if n := len(t.svcStack); n > 0 {
		t.svcStack = t.svcStack[:n-1]
	}
}
func (t *Thread) topSvc() isa.ServiceID {
	if n := len(t.svcStack); n > 0 {
		return t.svcStack[n-1]
	}
	return isa.Sys(isa.SysSchedYield)
}

// Scheduler is a round-robin preemptive scheduler in the style of the 2.6
// O(1) scheduler, reduced to a single run queue.
type Scheduler struct {
	k           *Kernel
	threads     []*Thread
	runq        []*Thread
	current     *Thread
	needResched bool
	dead        int
	switches    uint64
	// inThread is true while a thread goroutine owns the simulation; event
	// callbacks that run on the scheduler loop (idle advances, dispatch-time
	// deliveries) must not try to context-switch.
	inThread bool
	// failure records the first guest-thread panic (or cancellation cause).
	// It is only ever written by the goroutine currently driving the machine,
	// before the handoff back to the scheduler loop, so no locking is needed.
	failure error
	// jitterUntil makes the scheduler thrash until the given cycle (fault
	// injection): quanta expire every tick and schedule() walks a longer path.
	jitterUntil uint64
}

func newScheduler(k *Kernel) *Scheduler { return &Scheduler{k: k} }

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() uint64 { return s.switches }

func (s *Scheduler) spawn(name string, body func(*Proc)) *Thread {
	t := &Thread{
		k: s.k, id: len(s.threads) + 1, name: name, body: body,
		resume: make(chan struct{}), parked: make(chan struct{}),
		state: tRunnable, quantumLeft: s.k.tun.Quantum,
		taskAddr:    s.k.heap.AllocAligned(1344, 64),
		exitWaiters: s.k.NewWaitQueue(),
	}
	t.cursor = machine.Cursor{PC: machine.UserCodeBase + uint64(t.id)*0x10000}
	t.proc = newProc(s.k, t)
	s.threads = append(s.threads, t)
	s.runq = append(s.runq, t)
	go func() {
		<-t.resume
		// A panic anywhere in the guest body (or the kernel paths it calls)
		// must not escape this goroutine: the run's recover lives on the
		// scheduler caller's goroutine and cannot see it. Record the first
		// failure and finish the thread; the scheduler loop turns it into an
		// error from Run and cancels the remaining threads.
		defer func() {
			if r := recover(); r != nil {
				switch r.(type) {
				case threadExit: // normal guest exit
				case *machine.AbortError: // cancellation teardown
				default:
					s.fail(fmt.Errorf("thread %s: panic: %v\n%s",
						t.name, r, debug.Stack()))
				}
			}
			t.finish()
		}()
		s.k.m.AbortIfCanceled()
		t.body(t.proc)
	}()
	return t
}

// fail records the first failure; later ones (teardown collateral) are
// dropped.
func (s *Scheduler) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
}

// threadExit is the panic sentinel sys_exit_group uses to unwind a guest
// thread's Go stack back to the spawn wrapper.
type threadExit struct{}

// finish marks the thread dead and hands control back to the scheduler loop.
func (t *Thread) finish() {
	s := t.k.sched
	t.state = tDead
	s.dead++
	t.exitWaiters.WakeAll()
	t.parked <- struct{}{}
}

func (s *Scheduler) runnableCount() int {
	n := len(s.runq)
	if s.current != nil && s.current.state == tRunning {
		n++
	}
	return n
}

func (s *Scheduler) pickNext() *Thread {
	for len(s.runq) > 0 {
		t := s.runq[0]
		s.runq = s.runq[1:]
		if t.state == tRunnable {
			return t
		}
	}
	return nil
}

// run drives the simulation: it dispatches runnable threads and advances
// virtual time across idle gaps until every thread has exited. A watchdog
// aborts if the machine only ticks (timer events with no thread ever waking),
// which indicates a lost wakeup in kernel or workload code. A guest-thread
// panic or an external cancellation ends the run early: the machine is
// canceled, every surviving thread goroutine is drained, and the failure is
// returned.
func (s *Scheduler) run() error {
	idleStreak := 0
	for s.dead < len(s.threads) {
		if s.failure == nil {
			s.fail(s.k.m.Canceled())
		}
		if s.failure != nil {
			s.k.m.Cancel(s.failure)
			s.drain()
			break
		}
		t := s.pickNext()
		if t == nil {
			if !s.k.m.AdvanceIdle() {
				s.k.panicf("all threads blocked and no pending events (workload hang)")
			}
			if idleStreak++; idleStreak > 200_000 {
				s.k.panicf("livelock: %d idle advances with no runnable thread (%s)",
					idleStreak, s.describeThreads())
			}
			continue
		}
		idleStreak = 0
		s.dispatch(t)
	}
	// Close any interval left open by the final thread.
	s.k.m.SetDepth(0, isa.ServiceID{})
	// A cancellation that unwound the last surviving thread ends the loop
	// before the loop-top check can record it; fold it in so a canceled run
	// never reports success.
	if s.failure == nil {
		s.fail(s.k.m.Canceled())
	}
	return s.failure
}

// drain force-resumes every surviving thread so its goroutine observes the
// machine's cancellation (every handoff and instruction boundary checks it)
// and exits. Without this, an abandoned run would leak one parked goroutine
// per guest thread. Bounded passes: a resumed thread may re-park once in a
// fresh wait before crossing a check, but dies on its next resume.
func (s *Scheduler) drain() {
	for pass := 0; pass < 64 && s.dead < len(s.threads); pass++ {
		for _, t := range s.threads {
			if t.state == tDead {
				continue
			}
			s.current = t
			t.state = tRunning
			s.inThread = true
			t.resume <- struct{}{}
			<-t.parked
			s.inThread = false
			s.current = nil
		}
	}
}

// describeThreads summarizes thread states for hang diagnostics.
func (s *Scheduler) describeThreads() string {
	states := [...]string{"runnable", "running", "blocked", "dead"}
	out := ""
	for _, t := range s.threads {
		if out != "" {
			out += ", "
		}
		out += t.name + "=" + states[t.state] + "@" + t.parkSite()
	}
	return out
}

// dispatch installs t's context and transfers control to its goroutine until
// it parks again (blocks, is preempted, or exits).
func (s *Scheduler) dispatch(t *Thread) {
	s.current = t
	s.needResched = false
	t.state = tRunning
	s.k.m.SwapCursor(t.cursor)
	s.k.m.SetDepth(t.depth, t.topSvc())
	s.inThread = true
	t.resume <- struct{}{}
	<-t.parked
	s.inThread = false
	s.current = nil
}

// reschedule runs the schedule() kernel path on the current thread and hands
// control back to the scheduler loop. If blocked is false the thread remains
// runnable (preemption / yield); otherwise the caller has already queued it
// on a wait queue.
func (s *Scheduler) reschedule(blocked bool) {
	t := s.current
	if t == nil {
		return
	}
	s.scheduleBody()
	s.switches++
	s.k.trcCtxsw.Inc()
	s.k.trcRunq.Set(int64(s.runnableCount()))
	s.needResched = false
	if !blocked {
		t.state = tRunnable
		s.runq = append(s.runq, t)
	}
	t.depth = s.k.m.Depth()
	t.cursor = s.k.m.SwapCursor(machine.Cursor{PC: s.k.fn.schedule})
	if blocked {
		t.parkPC = callerPC(2)
	} else {
		t.parkPC = 0
	}
	t.parked <- struct{}{}
	<-t.resume
	// Resumed during teardown: unwind instead of running on.
	s.k.m.AbortIfCanceled()
}

// callerPC returns the caller's program counter without allocating; resolve
// it to "file:line" with Thread.parkSite only when diagnostics fire.
func callerPC(skip int) uintptr {
	var pcs [1]uintptr
	if runtime.Callers(skip+1, pcs[:]) == 0 {
		return 0
	}
	return pcs[0]
}

// jitterActive reports whether a fault-injected scheduler-jitter window is
// open (see Kernel.SetSchedJitter).
func (s *Scheduler) jitterActive() bool { return s.k.m.Now() < s.jitterUntil }

// canPreempt reports whether a context switch may be performed right now:
// only from code running on the current thread's own goroutine, and only
// while that thread is cleanly running — a thread mid-way through blocking
// (state already tBlocked) or freshly woken during its own wait-preparation
// (tRunnable) must not be preempted, or its scheduler bookkeeping would be
// clobbered; it is about to park anyway.
func (s *Scheduler) canPreempt() bool {
	return s.inThread && s.current != nil && s.current.state == tRunning
}

// scheduleBody emits the schedule() + context_switch() kernel path: run-queue
// scan, priority arithmetic, and the register/address-space switch. Its cost
// scales mildly with run-queue occupancy.
func (s *Scheduler) scheduleBody() {
	e := s.k.e
	e.Call(s.k.fn.schedule)
	e.Load(s.k.varRunq, 8, 0)
	e.Mix(18)
	n := min(len(s.runq), 6)
	// A load can fire device events that shrink the run queue mid-scan, so
	// the scan also stops at its live length.
	for i := 0; i < n && i < len(s.runq); i++ {
		e.Load(s.runq[i].taskAddr, 8, 1)
		e.Ops(4)
	}
	e.Call(s.k.fn.contextSwitch)
	if s.current != nil {
		e.Store(s.current.taskAddr+64, 64)
		e.Load(s.current.taskAddr+128, 64, 0)
	}
	e.Mix(26)
	if s.jitterActive() {
		// Fault injection: a priority-recomputation storm lengthens every
		// schedule() while the jitter window is open.
		e.Mix(40)
		e.ScanLines(s.k.varRunq, 2, 64)
	}
	// Address-space switch: the TLBs are flushed (no-op unless the machine
	// models TLBs).
	if mem := s.k.m.Mem(); mem != nil {
		mem.FlushTLB()
	}
	e.Ret()
	e.Ret()
}

// wake moves t to the run queue if it was blocked, emitting the
// try_to_wake_up path at the caller (typically an interrupt handler).
func (s *Scheduler) wake(t *Thread) {
	if t.state != tBlocked {
		return
	}
	e := s.k.e
	e.Load(t.taskAddr, 8, 0)
	e.Ops(8)
	e.Store(s.k.varRunq+8, 8)
	e.Store(t.taskAddr+16, 8)
	t.state = tRunnable
	s.runq = append(s.runq, t)
	if s.current != nil {
		s.needResched = true
	}
}

// WaitQueue is a kernel wait queue: threads block on it and interrupt
// handlers or other threads wake them.
type WaitQueue struct {
	k       *Kernel
	addr    uint64
	waiters []*Thread
}

// NewWaitQueue allocates a wait queue with a simulated head address.
func (k *Kernel) NewWaitQueue() *WaitQueue {
	return &WaitQueue{k: k, addr: k.heap.Alloc(32)}
}

// WaitFor blocks the current thread on wq until cond holds, following the
// kernel's prepare_to_wait discipline: the thread enqueues itself and marks
// itself blocked BEFORE emitting the wait-path instructions and re-checking
// the condition. Device events fire synchronously inside instruction
// emission, so this ordering is what makes wakeups race-free: any event that
// makes cond true during the emitted instructions finds the thread already
// on the queue. emit, if non-nil, contributes the caller's wait-path cost on
// each iteration.
func (wq *WaitQueue) WaitFor(cond func() bool, emit func()) {
	k := wq.k
	s := k.sched
	t := s.current
	if t == nil {
		if cond() {
			return
		}
		k.panicf("WaitFor outside a thread with condition unsatisfied")
	}
	e := k.e
	for {
		t.state = tBlocked
		wq.waiters = append(wq.waiters, t)
		// prepare_to_wait bookkeeping; events may fire inside these
		// emissions and wake us (making state tRunnable again).
		e.Store(wq.addr, 8)
		e.Store(t.taskAddr+16, 8)
		e.Ops(6)
		if emit != nil {
			emit()
		}
		if cond() {
			// Condition already true: cancel the wait (finish_wait).
			if t.state == tBlocked {
				wq.remove(t)
			}
			t.state = tRunning
			return
		}
		if t.state != tBlocked {
			// Woken during the preparation emissions but the condition is
			// not (or no longer) true: retry without parking. The stale run
			// queue entry from the wake is discarded when popped.
			continue
		}
		s.reschedule(true)
		// Dispatched again after a wakeup: re-check the condition.
	}
}

// Sleep blocks until the next wakeup on wq (single-shot, for event-flag
// style waits where the caller loops on its own condition). Like WaitFor it
// enqueues before emitting, so a wakeup that fires during the emitted
// instructions is not lost — Sleep then returns immediately.
func (wq *WaitQueue) Sleep() {
	k := wq.k
	s := k.sched
	t := s.current
	if t == nil {
		k.panicf("Sleep outside a thread")
	}
	e := k.e
	t.state = tBlocked
	wq.waiters = append(wq.waiters, t)
	e.Store(wq.addr, 8)
	e.Store(t.taskAddr+16, 8)
	e.Ops(6)
	if t.state != tBlocked {
		// Woken during the prepare_to_wait emissions.
		t.state = tRunning
		return
	}
	s.reschedule(true)
}

func (wq *WaitQueue) remove(t *Thread) {
	for i, w := range wq.waiters {
		if w == t {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			return
		}
	}
}

// WakeOne wakes the first waiter, if any, returning whether one was woken.
// Dequeuing shifts in place rather than advancing the slice head, so the
// queue's backing array survives drain/refill cycles and steady-state
// blocking allocates nothing (queues rarely hold more than a few waiters).
func (wq *WaitQueue) WakeOne() bool {
	for len(wq.waiters) > 0 {
		t := wq.waiters[0]
		last := len(wq.waiters) - 1
		copy(wq.waiters, wq.waiters[1:])
		wq.waiters[last] = nil
		wq.waiters = wq.waiters[:last]
		if t.state == tBlocked {
			wq.k.sched.wake(t)
			return true
		}
	}
	return false
}

// WakeAll wakes every waiter.
func (wq *WaitQueue) WakeAll() {
	for wq.WakeOne() {
	}
}

// SleepCycles blocks the current thread for the given number of cycles
// (nanosleep-style). The wakeup rides an op event whose payload names a
// pooled wait queue, so steady-state sleeping allocates nothing: the queue
// is recycled the moment its wakeup fires (WakeOne detaches the waiter
// before the thread resumes).
func (k *Kernel) SleepCycles(cycles uint64) {
	if k.appOnly() || cycles == 0 {
		return
	}
	var slot int32
	if n := len(k.sleepFree); n > 0 {
		slot = k.sleepFree[n-1]
		k.sleepFree = k.sleepFree[:n-1]
	} else {
		slot = int32(len(k.sleepers))
		k.sleepers = append(k.sleepers, &WaitQueue{k: k})
	}
	wq := k.sleepers[slot]
	// Each sleep takes a fresh simulated head address, exactly as the
	// historical per-sleep NewWaitQueue did — only the host-side structure
	// is recycled, so the emitted address stream (and with it every golden
	// table) is unchanged.
	wq.addr = k.heap.Alloc(32)
	k.m.ScheduleOpAfter(cycles, k.opSleep, uint64(slot), 0)
	wq.Sleep()
}

// Package kernel implements the simulated operating system: a Linux-2.6-like
// kernel with a system-call table, interrupt handling, a VFS with dentry and
// page caches, a block device, a TCP-like socket layer, demand paging, and a
// preemptive round-robin scheduler over guest threads.
//
// Every handler executes a real kernel-mode instruction stream over kernel
// data structures at stable simulated addresses, so a service's dynamic
// instruction count and cache behavior depend on (a) the parameters the
// application passes, (b) the state the handler accumulated across previous
// invocations (page cache, dentry cache, socket buffers, run queues), and
// (c) asynchronous external events — exactly the three sources of behavior
// variation the paper's characterization identifies (§3).
package kernel

import (
	"fmt"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/memsim"
	"fssim/internal/trace"
)

// Tunables controls the kernel's device timings and scheduler quantum, in
// core cycles. The defaults are scaled down from realistic hardware so that
// benchmark runs of a few million instructions experience realistic *rates*
// of timer ticks and I/O completions (see EXPERIMENTS.md, scaling notes).
type Tunables struct {
	TimerPeriod    uint64 // cycles between local APIC timer ticks
	Quantum        int    // timer ticks per scheduling quantum
	DiskSeek       uint64 // cycles of per-request positioning latency
	DiskPerPage    uint64 // additional cycles per 4KB page transferred
	NetRTT         uint64 // client<->server round-trip cycles
	NetPerKB       uint64 // serialization cycles per KB on the link
	ReadaheadPages int    // pages fetched per block read beyond the demand page
}

// DefaultTunables returns the standard scaled device model.
func DefaultTunables() Tunables {
	return Tunables{
		TimerPeriod: 300_000,
		Quantum:     4,
		DiskSeek:    60_000,
		DiskPerPage: 4_000,
		NetRTT:      24_000,
		// Fast-LAN link: 1KB serializes in ~800 core cycles. This sits in
		// the regime the paper's testbed occupied: CPU and memory-system
		// work per request is on the critical path (so L2 capacity matters,
		// Fig 2), while bulk transfers still pace the socket workloads.
		NetPerKB:       800,
		ReadaheadPages: 7,
	}
}

// Kernel is the simulated OS instance for one machine.
type Kernel struct {
	m   *machine.Machine
	e   machine.Emitter
	tun Tunables

	code *machine.CodeMap
	fn   kernelText // entry addresses of kernel routines
	heap *memsim.Arena

	sched *Scheduler
	fs    *FS
	disk  *Disk
	net   *Net

	// Global kernel variables that hot paths touch (jiffies, xtime, ...).
	varJiffies uint64
	varXtime   uint64
	varRunq    uint64

	timerOn bool
	ticks   uint64

	// opTimer dispatches timer ticks through the machine's event jump
	// table: the periodic rescheduling of the tick carries no closure, so
	// the timer contributes zero steady-state allocations (see
	// machine.ScheduleOp).
	opTimer machine.EventOp

	// Sleep-wakeup slab: SleepCycles parks threads on pooled wait queues
	// addressed by slot index, so a sleep schedules an op event with the
	// slot as payload instead of allocating a queue and a closure per call.
	sleepers  []*WaitQueue
	sleepFree []int32
	opSleep   machine.EventOp

	// Pre-resolved trace instruments. When the machine carries no recorder
	// these are nil and every method call is a guarded no-op, so the hot
	// paths pay one nil check rather than a map lookup.
	trcTicks *trace.Counter
	trcIRQs  *trace.Counter
	trcCtxsw *trace.Counter
	trcRunq  *trace.Gauge
}

// kernelText holds the simulated entry addresses of kernel functions, so
// repeated executions of a handler replay the same I-cache lines.
type kernelText struct {
	syscallEntry, syscallExit           uint64
	irqEntry, irqExit, timerTick        uint64
	schedule, contextSwitch             uint64
	pathLookup, dcacheMiss              uint64
	vfsRead, vfsWrite, readpage         uint64
	radixLookup, copyUser               uint64
	blockSubmit, blockDone              uint64
	tcpSendmsg, tcpRecvmsg, netRx, poll uint64
	doFork, doExecve, doExit, doWait    uint64
	pageFault, brk, mmap                uint64
	semop, gettimeofday, fcntl, ioctl   uint64
	openPath, closeFd, statPath         uint64
	getdents, lseek                     uint64
}

// New builds a kernel on m with the given tunables.
func New(m *machine.Machine, tun Tunables) *Kernel {
	k := &Kernel{
		m:    m,
		e:    m.Emitter(),
		tun:  tun,
		code: machine.NewCodeMap(machine.KernelCodeBase),
		heap: m.Lay.KernelHeap,
	}
	f := &k.fn
	c := k.code
	f.syscallEntry = c.Fn(256)
	f.syscallExit = c.Fn(192)
	f.irqEntry = c.Fn(256)
	f.irqExit = c.Fn(192)
	f.timerTick = c.Fn(512)
	f.schedule = c.Fn(768)
	f.contextSwitch = c.Fn(512)
	f.pathLookup = c.Fn(640)
	f.dcacheMiss = c.Fn(512)
	f.vfsRead = c.Fn(768)
	f.vfsWrite = c.Fn(768)
	f.readpage = c.Fn(512)
	f.radixLookup = c.Fn(256)
	f.copyUser = c.Fn(256)
	f.blockSubmit = c.Fn(512)
	f.blockDone = c.Fn(512)
	f.tcpSendmsg = c.Fn(1024)
	f.tcpRecvmsg = c.Fn(768)
	f.netRx = c.Fn(1024)
	f.poll = c.Fn(512)
	f.doFork = c.Fn(1024)
	f.doExecve = c.Fn(1536)
	f.doExit = c.Fn(768)
	f.doWait = c.Fn(384)
	f.pageFault = c.Fn(640)
	f.brk = c.Fn(256)
	f.mmap = c.Fn(384)
	f.semop = c.Fn(384)
	f.gettimeofday = c.Fn(128)
	f.fcntl = c.Fn(192)
	f.ioctl = c.Fn(256)
	f.openPath = c.Fn(512)
	f.closeFd = c.Fn(320)
	f.statPath = c.Fn(448)
	f.getdents = c.Fn(640)
	f.lseek = c.Fn(128)

	k.varJiffies = k.heap.Alloc(64)
	k.varXtime = k.heap.Alloc(64)
	k.varRunq = k.heap.Alloc(256)

	reg := m.Trace().Metrics()
	k.trcTicks = reg.Counter("kernel.ticks")
	k.trcIRQs = reg.Counter("kernel.irqs")
	k.trcCtxsw = reg.Counter("kernel.ctxsw")
	k.trcRunq = reg.Gauge("kernel.runq")

	k.sched = newScheduler(k)
	k.fs = newFS(k)
	k.disk = newDisk(k)
	k.net = newNet(k)

	k.opTimer = m.RegisterOp(func(_, _ uint64) { k.timerFire() })
	k.opSleep = m.RegisterOp(k.sleepWake)
	k.disk.op = m.RegisterOp(k.disk.complete)
	k.net.opDeliver = m.RegisterOp(k.net.deliver)
	k.net.opClose = m.RegisterOp(k.net.peerClosed)
	return k
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// FS returns the kernel's filesystem.
func (k *Kernel) FS() *FS { return k.fs }

// Net returns the kernel's network stack.
func (k *Kernel) Net() *Net { return k.net }

// Disk returns the kernel's block device.
func (k *Kernel) Disk() *Disk { return k.disk }

// InjectIRQ delivers a spurious interrupt on the given vector, as fault
// injection uses to model IRQ storms. Event-callback context only, like the
// device-side Inject* entry points.
func (k *Kernel) InjectIRQ(vector uint16) { k.handleIRQ(vector) }

// SetSchedJitter opens a scheduler-jitter window until the given cycle:
// quanta expire on every timer tick and schedule() walks a longer path,
// shifting the timer and context-switch services' behavior points (fault
// injection).
func (k *Kernel) SetSchedJitter(until uint64) {
	if until > k.sched.jitterUntil {
		k.sched.jitterUntil = until
	}
}

// Tunables returns the kernel's device/scheduler tunables.
func (k *Kernel) Tunables() Tunables { return k.tun }

// appOnly reports whether OS work is free (App-Only simulation): device
// latencies collapse to zero and the timer does not run, modeling syscalls
// that "return instantly" when the OS is not simulated.
func (k *Kernel) appOnly() bool { return k.m.Mode() == machine.AppOnly }

// Spawn creates a guest thread executing body. Threads become runnable
// immediately and are scheduled when Run is called.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Thread {
	return k.sched.spawn(name, body)
}

// Run starts the timer and schedules threads until all of them exit. It
// returns a non-nil error when the run ended early: a guest thread panicked
// (the panic is captured, not propagated) or the machine was canceled. In
// both cases every thread goroutine has been unwound before Run returns.
func (k *Kernel) Run() error {
	if !k.appOnly() && !k.timerOn {
		k.timerOn = true
		k.m.ScheduleOpAfter(k.tun.TimerPeriod, k.opTimer, 0, 0)
	}
	return k.sched.run()
}

// Ticks returns the number of timer interrupts delivered.
func (k *Kernel) Ticks() uint64 { return k.ticks }

// ContextSwitches returns the number of context switches performed.
func (k *Kernel) ContextSwitches() uint64 { return k.sched.Switches() }

func (k *Kernel) timerFire() {
	k.ticks++
	k.trcTicks.Inc()
	k.handleIRQ(isa.IrqTimer)
	k.m.ScheduleOpAfter(k.tun.TimerPeriod, k.opTimer, 0, 0)
}

// sleepWake is the SleepCycles op handler: wake the pooled wait queue in
// slot a and return the slot to the free list. WakeOne detaches the waiter
// before handing it to the scheduler, so the queue is reusable immediately.
func (k *Kernel) sleepWake(a, _ uint64) {
	wq := k.sleepers[a]
	wq.WakeOne()
	k.sleepFree = append(k.sleepFree, int32(a))
}

// handleIRQ is the kernel's interrupt entry, called directly by the device
// and timer event-op handlers: it opens (or nests into) an OS service
// interval, runs the vector's handler body, performs the
// return-from-interrupt preemption check, and closes the interval.
func (k *Kernel) handleIRQ(vector uint16) {
	e := k.e
	k.trcIRQs.Inc()
	k.m.KEnter(isa.Irq(vector))
	e.Call(k.fn.irqEntry)
	// Save registers, ack the APIC, bump irq counters.
	e.Ops(14)
	e.Load(k.varJiffies, 8, 0)
	e.Store(k.varJiffies, 8)
	e.Chain(4)

	switch vector {
	case isa.IrqTimer:
		k.timerBody()
	case isa.IrqDisk:
		k.disk.irqBody()
	case isa.IrqNIC:
		k.net.irqBody()
	default:
		e.Ops(20)
	}

	e.Call(k.fn.irqExit)
	e.Ops(10)
	e.Ret()
	e.Ret()
	// Kernel preemption point on the return-to-user path.
	if k.sched.needResched && k.sched.canPreempt() {
		k.sched.reschedule(false)
	}
	e.Iret()
	k.m.KExit()
}

// timerBody is the local APIC timer tick: timekeeping, the scheduler-tick
// accounting, and occasionally the expiry of kernel timers. Its path length
// varies with run-queue occupancy and with whether the tick ends a quantum —
// one of the multi-behavior-point services visible in the paper's Fig 3
// (Int_239).
func (k *Kernel) timerBody() {
	e := k.e
	e.Call(k.fn.timerTick)
	e.Load(k.varXtime, 8, 0)
	e.Store(k.varXtime, 8)
	e.Mix(24)
	// scheduler_tick: touch the run queue and the current task.
	e.Load(k.varRunq, 8, 0)
	runnable := k.sched.runnableCount()
	for i := 0; i < runnable && i < 8; i++ {
		e.Load(k.varRunq+uint64(16+i*8), 8, 1)
		e.Ops(3)
	}
	if cur := k.sched.current; cur != nil {
		e.Load(cur.taskAddr, 8, 0)
		e.Store(cur.taskAddr+24, 8)
		e.Ops(6)
		cur.quantumLeft--
		if k.sched.jitterActive() {
			// Fault injection: jitter forces a quantum expiry on every tick.
			cur.quantumLeft = 0
		}
		if cur.quantumLeft <= 0 {
			cur.quantumLeft = k.tun.Quantum
			if k.sched.runnableCount() > 1 {
				k.sched.needResched = true
				// Longer path: recompute dynamic priority.
				e.Mix(30)
			}
		}
	}
	// Timer-wheel cascade every 8 ticks.
	if k.ticks%8 == 0 {
		e.Mix(60)
		e.ScanLines(k.varRunq, 4, 64)
	}
	// Periodic dirty-page writeback (pdflush), every 16 ticks.
	if k.ticks%16 == 0 {
		k.fs.flushDirty(16)
	}
	e.Ret()
}

// panicf aborts the simulation with a kernel diagnostic; it indicates a bug
// in a workload's use of the kernel API, not a simulated-OS condition.
func (k *Kernel) panicf(format string, args ...interface{}) {
	panic("kernel: " + fmt.Sprintf(format, args...))
}

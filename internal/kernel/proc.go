package kernel

import (
	"fssim/internal/isa"
	"fssim/internal/memsim"
)

// Proc is the guest-visible face of a thread: a user-mode execution context
// with a demand-paged heap, a file-descriptor table, and system-call
// wrappers. Guest programs receive a Proc and interact with the OS only
// through it.
type Proc struct {
	k *Kernel
	t *Thread
	U UExec // user-mode instruction emitter with demand-paging checks

	fds    map[int]*File
	nextFd int
	cwd    *Dentry

	brk       uint64
	heapStart uint64
	present   []uint64 // bitmap of mapped heap pages, bit i = heapStart + i pages
	faults    uint64

	scratch uint64 // pre-faulted user I/O buffer (stack-like)
	pollwq  *WaitQueue
}

func newProc(k *Kernel, t *Thread) *Proc {
	p := &Proc{
		k: k, t: t,
		fds:     make(map[int]*File),
		nextFd:  3,
		cwd:     k.fs.root,
		scratch: k.m.Lay.UserStack.AllocAligned(128<<10, memsim.PageSize),
	}
	p.heapStart = k.m.Lay.UserHeap.AllocAligned(0, memsim.PageSize)
	p.brk = p.heapStart
	p.U = UExec{p: p, e: k.e}
	return p
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Thread returns the underlying thread.
func (p *Proc) Thread() *Thread { return p.t }

// Faults returns the number of demand-paging faults taken.
func (p *Proc) Faults() uint64 { return p.faults }

// Cwd returns the process's current working directory path.
func (p *Proc) Cwd() string { return p.cwd.Path() }

// Scratch returns the address of the thread's pre-faulted 128KB user buffer
// (read/write targets for I/O syscalls, request parsing, and similar).
func (p *Proc) Scratch() uint64 { return p.scratch }

// enter begins a system call: the trapping instruction in user mode, the
// mode switch, and the kernel entry path.
func (p *Proc) enter(nr uint16) {
	e := p.k.e
	e.Syscall()
	p.k.m.KEnter(isa.Sys(nr))
	p.t.pushSvc(isa.Sys(nr))
	e.Call(p.k.fn.syscallEntry)
	e.Ops(10)
	e.Load(p.t.taskAddr, 8, 0)
	e.Chain(3)
	e.Ops(8)
}

// exitSyscall ends a system call: the kernel exit path, the return-to-user
// preemption point, and the IRET that closes the service interval.
func (p *Proc) exitSyscall() {
	e := p.k.e
	e.Ops(6)
	e.Load(p.t.taskAddr+32, 8, 0)
	e.Ops(4)
	e.Ret()
	if p.k.sched.needResched && p.k.sched.canPreempt() && p.k.sched.current == p.t {
		p.k.sched.reschedule(false)
	}
	e.Iret()
	p.t.popSvc()
	p.k.m.KExit()
}

// installFd registers f and returns its descriptor.
func (p *Proc) installFd(f *File) int {
	fd := p.nextFd
	p.nextFd++
	p.fds[fd] = f
	return fd
}

func (p *Proc) file(fd int) *File {
	f := p.fds[fd]
	if f == nil {
		p.k.panicf("thread %q: bad fd %d", p.t.name, fd)
	}
	return f
}

// --- Demand paging -------------------------------------------------------

// pagedRegion reports whether addr belongs to the demand-paged heap.
func (p *Proc) pagedRegion(addr uint64) bool {
	return addr >= p.heapStart && addr < p.brk
}

// touch takes page faults for any unmapped heap pages in [addr, addr+size).
func (p *Proc) touch(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	end := addr + uint64(size) - 1
	if !p.pagedRegion(addr) && !p.pagedRegion(end) {
		return
	}
	for pg := memsim.PageOf(addr); pg <= end; pg += memsim.PageSize {
		if !p.pagedRegion(pg) {
			continue
		}
		i := (pg - p.heapStart) / memsim.PageSize
		if p.present[i/64]&(1<<(i%64)) == 0 {
			p.present[i/64] |= 1 << (i % 64)
			p.pageFault(pg)
		}
	}
}

// growHeap moves brk up by n bytes rounded up to whole pages and widens the
// page-presence bitmap to cover the new pages. Pages are only ever added.
func (p *Proc) growHeap(n int) {
	sz := (uint64(n) + memsim.PageSize - 1) &^ (memsim.PageSize - 1)
	p.k.m.Lay.UserHeap.Alloc(sz)
	p.brk += sz
	words := int((p.brk-p.heapStart)/memsim.PageSize+63) / 64
	p.present = append(p.present, make([]uint64, words-len(p.present))...)
}

// pageFault runs the demand-paging exception handler: VMA lookup, a buddy
// allocation, and clearing the fresh page (the dominant cost).
func (p *Proc) pageFault(page uint64) {
	p.faults++
	k := p.k
	e := k.e
	k.m.KEnter(isa.Exc(isa.ExcPageFault))
	p.t.pushSvc(isa.Exc(isa.ExcPageFault))
	e.Call(k.fn.pageFault)
	e.Ops(12)
	e.ChaseList([]uint64{p.t.taskAddr + 200, p.t.taskAddr + 264, p.t.taskAddr + 328})
	e.Mix(30) // buddy allocator
	e.WriteLines(page, memsim.PageSize/64, 64)
	e.Store(p.t.taskAddr+392, 8) // page-table update
	e.Ops(8)
	e.Ret()
	e.Iret()
	p.t.popSvc()
	k.m.KExit()
}

// --- Memory syscalls ------------------------------------------------------

// Brk grows the heap by n bytes (page-rounded) and returns the base address
// of the new region. Pages are mapped on first touch.
func (p *Proc) Brk(n int) uint64 {
	p.enter(isa.SysBrk)
	e := p.k.e
	e.Call(p.k.fn.brk)
	e.Ops(18)
	e.Load(p.t.taskAddr+200, 8, 0)
	e.Store(p.t.taskAddr+208, 8)
	e.Ret()
	base := p.brk
	p.growHeap(n)
	p.exitSyscall()
	return base
}

// Mmap2 maps n anonymous bytes and returns the base address.
func (p *Proc) Mmap2(n int) uint64 {
	p.enter(isa.SysMmap2)
	e := p.k.e
	e.Call(p.k.fn.mmap)
	e.Ops(26)
	e.ChaseList([]uint64{p.t.taskAddr + 200, p.t.taskAddr + 264})
	e.Mix(20)
	e.Ret()
	base := p.brk
	p.growHeap(n)
	p.exitSyscall()
	return base
}

// --- Misc syscalls --------------------------------------------------------

// Gettimeofday reads the kernel clock.
func (p *Proc) Gettimeofday() {
	p.enter(isa.SysGettimeofday)
	e := p.k.e
	e.Call(p.k.fn.gettimeofday)
	e.Load(p.k.varXtime, 8, 0)
	e.Load(p.k.varXtime+8, 8, 0)
	e.Chain(6)
	e.Store(p.scratch, 16)
	e.Ops(10)
	e.Ret()
	p.exitSyscall()
}

// SchedYield gives up the CPU.
func (p *Proc) SchedYield() {
	p.enter(isa.SysSchedYield)
	p.k.e.Ops(12)
	if !p.k.appOnly() {
		p.k.sched.reschedule(false)
	}
	p.exitSyscall()
}

// Nanosleep blocks the thread for the given number of cycles.
func (p *Proc) Nanosleep(cycles uint64) {
	p.enter(isa.SysNanosleep)
	e := p.k.e
	e.Ops(24)
	e.Chain(4)
	p.k.SleepCycles(cycles)
	p.exitSyscall()
}

// Semop performs a SysV semaphore operation through sys_ipc — the accept
// mutex pattern multi-process servers use. acquire=true locks (possibly
// blocking), acquire=false unlocks (possibly waking a waiter).
func (p *Proc) Semop(sem *Semaphore, acquire bool) {
	p.enter(isa.SysIpc)
	e := p.k.e
	e.Call(p.k.fn.semop)
	e.Ops(16)
	e.Load(sem.addr, 8, 0)
	e.Chain(3)
	if acquire {
		if sem.held {
			// Contended: sleep until the holder releases.
			sem.wq.WaitFor(func() bool { return !sem.held }, func() { e.Mix(20) })
		}
		sem.held = true
		e.Store(sem.addr, 8)
		e.Ops(6)
	} else {
		sem.held = false
		e.Store(sem.addr, 8)
		e.Ops(4)
		sem.wq.WakeOne()
	}
	e.Ret()
	p.exitSyscall()
}

// Semaphore is a SysV-style kernel semaphore (binary).
type Semaphore struct {
	addr uint64
	held bool
	wq   *WaitQueue
}

// NewSemaphore allocates a kernel semaphore.
func (k *Kernel) NewSemaphore() *Semaphore {
	return &Semaphore{addr: k.heap.Alloc(64), wq: k.NewWaitQueue()}
}

// --- Process management ---------------------------------------------------

// Clone spawns a child thread via sys_clone and returns it.
func (p *Proc) Clone(name string, body func(*Proc)) *Thread {
	p.enter(isa.SysClone)
	e := p.k.e
	e.Call(p.k.fn.doFork)
	e.Ops(40)
	child := p.k.sched.spawn(name, body)
	// dup_task_struct: copy the parent's task into the child's.
	e.CopyLines(child.taskAddr, p.t.taskAddr, 1344/64)
	e.Mix(120) // copy fs/files/sighand/mm descriptors
	e.Store(p.k.varRunq+8, 8)
	e.Ret()
	p.exitSyscall()
	return child
}

// Execve replaces the process image with the binary at path, reading its
// pages through the page cache (first exec hits the disk, later ones hit the
// cache — a classic two-behavior-point service).
func (p *Proc) Execve(path string) {
	p.enter(isa.SysExecve)
	e := p.k.e
	d := p.k.fs.lookup(p, path)
	e.Call(p.k.fn.doExecve)
	e.Mix(180) // flush old mm, setup new mm, copy argv
	if d != nil && d.inode != nil {
		pages := int((d.inode.size + memsim.PageSize - 1) / memsim.PageSize)
		if pages > 8 {
			pages = 8 // text pages mapped eagerly
		}
		p.k.fs.readPages(p, d.inode, 0, pages)
		for i := 0; i < pages; i++ {
			pg := d.inode.page(p.k, int64(i))
			e.Load(pg.addr, 64, 0)
			e.Ops(4)
		}
	}
	e.Mix(80)
	e.Ret()
	p.exitSyscall()
}

// ExitGroup terminates the thread via sys_exit_group. It does not return.
func (p *Proc) ExitGroup() {
	p.enter(isa.SysExitGroup)
	e := p.k.e
	e.Call(p.k.fn.doExit)
	e.Mix(90) // release files, mm, signal state
	for fd := range p.fds {
		delete(p.fds, fd)
		e.Ops(10)
	}
	e.Store(p.t.taskAddr+16, 8)
	e.Ret()
	// The interval ends here; the thread never returns to user mode. The
	// spawn wrapper recovers threadExit and retires the thread.
	p.t.popSvc()
	p.k.m.KExit()
	panic(threadExit{})
}

// Waitpid blocks until child exits.
func (p *Proc) Waitpid(child *Thread) {
	p.enter(isa.SysWaitpid)
	e := p.k.e
	e.Call(p.k.fn.doWait)
	e.Ops(22)
	e.Load(child.taskAddr+16, 8, 0)
	if child.state != tDead {
		child.exitWaiters.WaitFor(func() bool { return child.state == tDead },
			func() { e.Mix(10) })
	}
	e.Mix(30) // reap: release task struct
	e.Ret()
	p.exitSyscall()
}

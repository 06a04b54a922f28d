package machine

import (
	"fssim/internal/cache"
	"fssim/internal/isa"
	"fssim/internal/memsim"
)

// Cursor tracks the program counter of the current execution stream,
// including a return-address stack for Call/Ret. Each simulated thread owns a
// Cursor; the kernel swaps them on context switches so that instruction
// addresses — and therefore I-cache behavior — stay coherent per thread.
type Cursor struct {
	PC    uint64
	stack []uint64
}

// SwapCursor installs c as the active cursor and returns the previous one.
func (m *Machine) SwapCursor(c Cursor) Cursor {
	old := m.cursor
	m.cursor = c
	return old
}

// CursorState returns the active cursor (by value; useful for saving).
func (m *Machine) CursorState() Cursor { return m.cursor }

// CodeMap assigns stable simulated addresses to named functions, so that
// repeated executions of the same kernel or guest routine replay the same
// instruction addresses (I-cache locality) while distinct routines occupy
// distinct lines.
type CodeMap struct {
	next uint64
}

// NewCodeMap returns a code map allocating from base.
func NewCodeMap(base uint64) *CodeMap { return &CodeMap{next: base} }

// Fn reserves size bytes of code space and returns the entry address.
func (cm *CodeMap) Fn(size uint64) uint64 {
	pc := cm.next
	cm.next += (size + 63) &^ 63 // line-align entries
	return pc
}

// UserCodeBase and related constants place guest code at the classic i386
// text base, away from kernel text.
const (
	UserCodeBase   = memsim.UserTextBase
	KernelCodeBase = memsim.KernelText
)

// Emitter is the instruction-emission API used by kernel and guest code. All
// methods feed dynamic instructions to the machine with automatically
// maintained PCs.
type Emitter struct {
	m *Machine
}

// Emitter returns an emitter bound to the machine.
func (m *Machine) Emitter() Emitter { return Emitter{m: m} }

// Machine returns the underlying machine.
func (e Emitter) Machine() *Machine { return e.m }

// emit stages the instruction in the machine's scratch slot and executes
// it. Staging matters: Exec takes a pointer that flows into the cpu.Core
// interface, so a stack-local instruction would escape — one heap
// allocation per emitted instruction, which profiling showed was ~95% of
// all allocation in a detailed run. The machine consumes the instruction
// synchronously (reentrant emissions from device events rewrite the slot
// only after the outer Exec is done reading it), so the single scratch is
// safe.
// emit is cheap enough to inline into every helper, so the instruction
// literal is built directly in the scratch slot with no stack intermediate.
func (e Emitter) emit(in isa.Inst) {
	e.m.inst = in
	e.m.execStaged()
}

// Shaped helpers. The counted helpers below (Ops, Chain, Mix, FOps,
// CopyLines, ScanLines, WriteLines, ChaseList) know their instruction
// stream up front, so each describes it once — an ffShape plus a fill
// function — and hands it to Emitter.run, which applies it span by span:
// in bulk while the machine fast-forwards, in batches through the timing
// core while it simulates in detail, and one instruction at a time through
// Exec in between. Every path reproduces Exec's counters, signature, cursor,
// clock and event firing points exactly; see DESIGN.md §8.

// ffShape describes a counted helper's instruction stream: one period of
// instructions repeated, with the slot of the period's load, store and
// branch (-1 when absent). A shape with a branch is a loop: the branch is
// the period's last slot and jumps back to the loop head, taken in every
// period but the last.
type ffShape struct {
	period              int
	load, store, branch int
}

var (
	ffStraight = ffShape{period: 1, load: -1, store: -1, branch: -1}
	ffCopy     = ffShape{period: 4, load: 1, store: 2, branch: 3}
	ffScan     = ffShape{period: 4, load: 1, store: -1, branch: 3}
	ffWrite    = ffShape{period: 3, load: -1, store: 1, branch: 2}
	ffChase    = ffShape{period: 3, load: 0, store: -1, branch: 2}
)

// slots counts the instructions in [x, y) that sit at slot s of a period.
func (sh *ffShape) slots(s, x, y int) uint64 {
	if s < 0 {
		return 0
	}
	p := sh.period
	return uint64((y+p-1-s)/p - (x+p-1-s)/p)
}

// fillFunc writes instructions x, x+1, … of a shaped helper's stream into
// dst, all fields but the PC: the PC comes from the live cursor when the
// instruction runs.
type fillFunc func(x int, dst []isa.Inst)

// run executes instructions [0, n) of a shaped helper whose stream is sh
// and fill; start is a loop shape's head PC. Each round looks at the
// machine once:
//   - fast-forwarding: the longest span Machine.ffSpan allows is applied in
//     O(1) apart from its virtual-clock adds, and the boundary instruction
//     after it goes through Exec;
//   - simulating in detail: a batch goes through the timing core (detail);
//   - otherwise — an application interval is about to open lazily, or
//     App-Only kernel code runs at no cost — one instruction goes through
//     Exec.
func (e Emitter) run(sh *ffShape, n int, start uint64, fill fillFunc) {
	m, p := e.m, sh.period
	for x := 0; x < n; {
		switch iv := m.ffState(); {
		case iv != nil:
			m.AbortIfCanceled()
			if k := m.ffSpan(n - x); k > 0 {
				y := x + k
				m.count(sh, x, y)
				iv.emuInsts += uint64(k)
				iv.emuTotal += uint64(k)
				loop, last := sh.branch >= 0, y-1
				switch head := last - last%p; {
				case loop && last%p == sh.branch && y < n:
					m.cursor.PC = start // the span ends on a taken back-branch
				case loop && head >= x:
					m.cursor.PC = start + 4*uint64(y-head) // it ran from the loop head
				default:
					m.cursor.PC += 4 * uint64(k)
				}
				if x = y; x == n {
					return
				}
			}
		case m.cur == nil && m.depth == 0 && m.appSink != nil, m.depth > 0 && m.cfg.Mode == AppOnly:
		default:
			x += e.detail(sh, x, n, fill)
			continue
		}
		fill(x, m.batch[:1])
		m.inst = m.batch[0]
		taken, target := m.inst.Taken, m.inst.Target
		m.execStaged()
		if taken {
			m.cursor.PC = target
		}
		x++
	}
}

// detail runs the next batch of a shaped helper, starting at instruction
// x < n, through the timing core, and returns how many instructions ran.
// A batch holds at most len(Machine.batch) instructions and ends at Exec's
// next cancellation poll, so a canceled run aborts at the same instruction
// as it would one instruction at a time. The core stops it after the first
// instruction whose commit reaches the next event (unless a delivery is
// already on the stack, when Exec would not poll). That instruction is the
// only one at which events fire, and it is handled as Exec and the emitter
// handle it: the counters and signature first, then the poll with the
// cursor just past it, then a taken branch's retarget.
func (e Emitter) detail(sh *ffShape, x, n int, fill fillFunc) int {
	m := e.m
	if m.totalInsts&255 == 0 {
		m.AbortIfCanceled()
	}
	b := m.batch[:min(n-x, len(m.batch), 256-int(m.totalInsts&255))]
	fill(x, b)
	pc := m.cursor.PC
	for j := range b {
		b[j].PC = pc
		pc += 4
		if b[j].Taken {
			pc = b[j].Target
		}
	}
	stop := m.next
	if m.delivering {
		stop = ^uint64(0)
	}
	owner := cache.OwnerApp
	if m.depth > 0 {
		owner = cache.OwnerOS
	}
	k, now := m.core.ExecBatch(b, owner, stop)
	// Event handlers may reuse the batch array: read the last instruction
	// out before polling.
	last := b[k-1]
	m.count(sh, x, x+k)
	m.cursor.PC = last.PC + 4
	if now >= m.next && !m.delivering {
		m.pollEvents()
	}
	if last.Taken {
		m.cursor.PC = last.Target
	}
	return k
}

// Straight-line helper patterns: one period of each stream, a power of two
// long.
var (
	opsPattern   = [1]isa.Inst{{Op: isa.ALU}}
	chainPattern = [1]isa.Inst{{Op: isa.ALU, Dep: 1}}
	mixPattern   = [8]isa.Inst{
		{Op: isa.ALU}, {Op: isa.ALU}, {Op: isa.ALU}, {Op: isa.ALU, Dep: 1},
		{Op: isa.ALU}, {Op: isa.ALU, Dep: 2}, {Op: isa.ALU}, {Op: isa.MUL},
	}
	fopsPattern = [4]isa.Inst{{Op: isa.FPU}, {Op: isa.FPU}, {Op: isa.FPU}, {Op: isa.FPU, Dep: 1}}
)

// straight runs n instructions of a straight-line helper: pat repeated.
func (e Emitter) straight(n int, pat []isa.Inst) {
	e.run(&ffStraight, n, 0, func(x int, dst []isa.Inst) {
		for j := range dst {
			dst[j] = pat[(x+j)&(len(pat)-1)]
		}
	})
}

// Ops emits n independent single-cycle integer operations.
func (e Emitter) Ops(n int) { e.straight(n, opsPattern[:]) }

// Chain emits n serially dependent integer operations (a dependence chain,
// e.g. an address calculation or reduction).
func (e Emitter) Chain(n int) { e.straight(n, chainPattern[:]) }

// Mix emits n instructions with a typical integer-code shape: mostly ALU with
// scattered short dependence chains and an occasional multiply — the filler
// between the memory operations that dominate timing.
func (e Emitter) Mix(n int) { e.straight(n, mixPattern[:]) }

// FOps emits n floating-point operations with moderate dependence.
func (e Emitter) FOps(n int) { e.straight(n, fopsPattern[:]) }

// Div emits one integer divide.
func (e Emitter) Div() { e.emit(isa.Inst{Op: isa.DIV, Dep: 1}) }

// FDiv emits one floating-point divide.
func (e Emitter) FDiv() { e.emit(isa.Inst{Op: isa.FDIV, Dep: 1}) }

// Load emits a load of size bytes from addr. dep gives the dependence
// distance of the address computation (0 = address ready immediately).
func (e Emitter) Load(addr uint64, size int, dep uint8) {
	e.emit(isa.Inst{Op: isa.LOAD, Addr: addr, Size: uint8(size), Dep: dep})
}

// Store emits a store of size bytes to addr.
func (e Emitter) Store(addr uint64, size int) {
	e.emit(isa.Inst{Op: isa.STORE, Addr: addr, Size: uint8(size)})
}

// Branch emits a conditional branch with the given actual outcome; target is
// the actual destination when taken.
func (e Emitter) Branch(taken bool, target uint64) {
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: taken, Target: target})
	if taken {
		e.m.cursor.PC = target
	}
}

// Syscall emits the trapping instruction that begins a system call (executed
// in user mode; the kernel's dispatcher then calls KEnter).
func (e Emitter) Syscall() { e.emit(isa.Inst{Op: isa.SYSCALL}) }

// Iret emits the return-from-kernel instruction (executed in kernel mode as
// the final instruction of a service interval).
func (e Emitter) Iret() { e.emit(isa.Inst{Op: isa.IRET}) }

// Call transfers control to the function at pc, pushing the return address.
func (e Emitter) Call(pc uint64) {
	e.m.cursor.stack = append(e.m.cursor.stack, e.m.cursor.PC+4)
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: pc})
	e.m.cursor.PC = pc
}

// Ret returns from the most recent Call.
func (e Emitter) Ret() {
	st := e.m.cursor.stack
	if len(st) == 0 {
		e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: e.m.cursor.PC})
		return
	}
	target := st[len(st)-1]
	e.m.cursor.stack = st[:len(st)-1]
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: target})
	e.m.cursor.PC = target
}

// Loop runs body iters times with a backward branch per iteration, replaying
// the same instruction addresses each time (so the body enjoys I-cache
// locality like a real loop).
func (e Emitter) Loop(iters int, body func(i int)) {
	if iters <= 0 {
		return
	}
	start := e.m.cursor.PC
	for i := 0; i < iters; i++ {
		e.m.cursor.PC = start
		body(i)
		e.Branch(i < iters-1, start)
		if i < iters-1 {
			// Branch() moved the cursor back to start; the loop resets it
			// anyway. Restore fallthrough PC bookkeeping for the final exit.
			e.m.cursor.PC = start
		}
	}
}

// CopyLines models a memcpy of n cache lines from src to dst: per line, an
// induction update, a load, a store, and the loop branch. Successive lines
// are independent (addresses come from the induction variable), so the
// out-of-order core overlaps their misses the way real memcpy does.
func (e Emitter) CopyLines(dst, src uint64, n int) {
	start := e.m.cursor.PC
	e.run(&ffCopy, 4*n, start, func(x int, b []isa.Inst) {
		for j := range b {
			i := (x + j) / 4
			off := uint64(i) * 64
			switch (x + j) % 4 {
			case 0:
				b[j] = isa.Inst{Op: isa.ALU, Dep: 4}
			case 1:
				b[j] = isa.Inst{Op: isa.LOAD, Addr: src + off, Size: 64, Dep: 1}
			case 2:
				b[j] = isa.Inst{Op: isa.STORE, Addr: dst + off, Size: 64}
			default:
				b[j] = isa.Inst{Op: isa.BRANCH, Taken: i < n-1, Target: start}
			}
		}
	})
}

// ScanLines models a read sweep over n lines starting at addr with the given
// stride: per line, an index update, an independent load, a consuming op,
// and the branch.
func (e Emitter) ScanLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	start := e.m.cursor.PC
	e.run(&ffScan, 4*n, start, func(x int, b []isa.Inst) {
		for j := range b {
			i := (x + j) / 4
			switch (x + j) % 4 {
			case 0:
				b[j] = isa.Inst{Op: isa.ALU, Dep: 4}
			case 1:
				b[j] = isa.Inst{Op: isa.LOAD, Addr: addr + uint64(i)*stride, Size: 8, Dep: 1}
			case 2:
				b[j] = isa.Inst{Op: isa.ALU, Dep: 1}
			default:
				b[j] = isa.Inst{Op: isa.BRANCH, Taken: i < n-1, Target: start}
			}
		}
	})
}

// WriteLines models a write sweep (e.g. zeroing a page) over n lines.
func (e Emitter) WriteLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	start := e.m.cursor.PC
	e.run(&ffWrite, 3*n, start, func(x int, b []isa.Inst) {
		for j := range b {
			i := (x + j) / 3
			switch (x + j) % 3 {
			case 0:
				b[j] = isa.Inst{Op: isa.ALU, Dep: 3}
			case 1:
				b[j] = isa.Inst{Op: isa.STORE, Addr: addr + uint64(i)*stride, Size: 64}
			default:
				b[j] = isa.Inst{Op: isa.BRANCH, Taken: i < n-1, Target: start}
			}
		}
	})
}

// ChaseList models dependent pointer chasing through the given node
// addresses (hash-chain walks, dentry lookups, run-queue scans): each load's
// address depends on the previous load's result, so the walk serializes at
// the memory latency. Each iteration emits [LOAD, ALU, BRANCH]; the next
// iteration's load therefore names the producer three instructions back.
// The walk exits to the instruction after the loop body, wherever an event
// handler left the cursor during the last iteration.
func (e Emitter) ChaseList(nodes []uint64) {
	if len(nodes) == 0 {
		return
	}
	start := e.m.cursor.PC
	e.run(&ffChase, 3*len(nodes), start, func(x int, b []isa.Inst) {
		for j := range b {
			i := (x + j) / 3
			switch (x + j) % 3 {
			case 0:
				dep := uint8(3) // the previous iteration's load
				if i == 0 {
					dep = 0 // head pointer is already in a register
				}
				b[j] = isa.Inst{Op: isa.LOAD, Addr: nodes[i], Size: 8, Dep: dep}
			case 1:
				b[j] = isa.Inst{Op: isa.ALU, Dep: 1}
			default:
				b[j] = isa.Inst{Op: isa.BRANCH, Taken: i < len(nodes)-1, Target: start}
			}
		}
	})
	e.m.cursor.PC = start + 12
}

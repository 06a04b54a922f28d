package machine

import (
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

// Bulk fast-forward. While the machine fast-forwards, an instruction costs
// Exec nothing but counting and a virtual-clock add, so the counted helpers
// below — whose instruction count and mix are known up front — check the
// fast-forward state once per call and, when it holds, hand their stream to
// ffRun instead of emitting it instruction by instruction, reproducing Exec's
// counters, signature, cursor and virtual clock exactly; see DESIGN.md §8.

// ffShape describes a counted helper's instruction stream: one period of
// instructions repeated, with the slot of the period's load, store and
// branch (-1 when absent). A shape with a branch is an Emitter.Loop: the
// branch is the period's last slot and jumps back to the loop head.
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

// ffRun emits instructions [0, n) of a counted helper while the machine
// fast-forwards. Each round applies the longest span Machine.ffSpan allows
// in O(1) apart from its virtual-clock adds, then passes the boundary
// instruction to step, which emits instruction x exactly as the helper's
// per-instruction path would. Only a boundary can fire events, so the
// fast-forward state and cancellation are checked once per round; if an
// event ends the fast-forward, step emits the rest one by one. start is a
// loop shape's head PC.
func (e Emitter) ffRun(sh *ffShape, n int, start uint64, step func(x int)) {
	m, p := e.m, sh.period
	for x := 0; x < n; x++ {
		if iv := m.ffState(); iv != nil {
			m.AbortIfCanceled()
			if k := m.ffSpan(n - x); k > 0 {
				y := x + k
				m.ffCount(iv, uint64(k), sh.slots(sh.load, x, y), sh.slots(sh.store, x, y), sh.slots(sh.branch, x, y))
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
		}
		step(x)
	}
}

// mixPattern is one period of Mix's instruction stream.
var mixPattern = [8]isa.Inst{
	{Op: isa.ALU}, {Op: isa.ALU}, {Op: isa.ALU}, {Op: isa.ALU, Dep: 1},
	{Op: isa.ALU}, {Op: isa.ALU, Dep: 2}, {Op: isa.ALU}, {Op: isa.MUL},
}

// fopsPattern is one period of FOps's instruction stream.
var fopsPattern = [4]isa.Inst{{Op: isa.FPU}, {Op: isa.FPU}, {Op: isa.FPU}, {Op: isa.FPU, Dep: 1}}

// Ops emits n independent single-cycle integer operations.
func (e Emitter) Ops(n int) {
	if e.m.ffState() != nil {
		e.ffRun(&ffStraight, n, 0, func(int) { e.emit(isa.Inst{Op: isa.ALU}) })
		return
	}
	for i := 0; i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU})
	}
}

// Chain emits n serially dependent integer operations (a dependence chain,
// e.g. an address calculation or reduction).
func (e Emitter) Chain(n int) {
	if e.m.ffState() != nil {
		e.ffRun(&ffStraight, n, 0, func(int) { e.emit(isa.Inst{Op: isa.ALU, Dep: 1}) })
		return
	}
	for i := 0; i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
	}
}

// Mix emits n instructions with a typical integer-code shape: mostly ALU with
// scattered short dependence chains and an occasional multiply — the filler
// between the memory operations that dominate timing.
func (e Emitter) Mix(n int) {
	if e.m.ffState() != nil {
		e.ffRun(&ffStraight, n, 0, func(i int) { e.emit(mixPattern[i&7]) })
		return
	}
	for i := 0; i < n; i++ {
		e.emit(mixPattern[i&7])
	}
}

// FOps emits n floating-point operations with moderate dependence.
func (e Emitter) FOps(n int) {
	if e.m.ffState() != nil {
		e.ffRun(&ffStraight, n, 0, func(i int) { e.emit(fopsPattern[i&3]) })
		return
	}
	for i := 0; i < n; i++ {
		e.emit(fopsPattern[i&3])
	}
}

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
	if n > 0 && e.m.ffState() != nil {
		start := e.m.cursor.PC
		e.ffRun(&ffCopy, 4*n, start, func(x int) {
			i := x / 4
			switch x % 4 {
			case 0:
				e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
			case 1:
				e.Load(src+uint64(i)*64, 64, 1)
			case 2:
				e.Store(dst+uint64(i)*64, 64)
			default:
				e.Branch(i < n-1, start)
			}
		})
		return
	}
	e.Loop(n, func(i int) {
		off := uint64(i) * 64
		e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
		e.Load(src+off, 64, 1)
		e.Store(dst+off, 64)
	})
}

// ScanLines models a read sweep over n lines starting at addr with the given
// stride: per line, an index update, an independent load, a consuming op,
// and the branch.
func (e Emitter) ScanLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	if n > 0 && e.m.ffState() != nil {
		start := e.m.cursor.PC
		e.ffRun(&ffScan, 4*n, start, func(x int) {
			i := x / 4
			switch x % 4 {
			case 0:
				e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
			case 1:
				e.Load(addr+uint64(i)*stride, 8, 1)
			case 2:
				e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
			default:
				e.Branch(i < n-1, start)
			}
		})
		return
	}
	e.Loop(n, func(i int) {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
		e.Load(addr+uint64(i)*stride, 8, 1)
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
	})
}

// WriteLines models a write sweep (e.g. zeroing a page) over n lines.
func (e Emitter) WriteLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	if n > 0 && e.m.ffState() != nil {
		start := e.m.cursor.PC
		e.ffRun(&ffWrite, 3*n, start, func(x int) {
			i := x / 3
			switch x % 3 {
			case 0:
				e.emit(isa.Inst{Op: isa.ALU, Dep: 3})
			case 1:
				e.Store(addr+uint64(i)*stride, 64)
			default:
				e.Branch(i < n-1, start)
			}
		})
		return
	}
	e.Loop(n, func(i int) {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 3})
		e.Store(addr+uint64(i)*stride, 64)
	})
}

// ChaseList models dependent pointer chasing through the given node
// addresses (hash-chain walks, dentry lookups, run-queue scans): each load's
// address depends on the previous load's result, so the walk serializes at
// the memory latency. Each iteration emits [LOAD, ALU, BRANCH]; the next
// iteration's load therefore names the producer three instructions back.
func (e Emitter) ChaseList(nodes []uint64) {
	start := e.m.cursor.PC
	if len(nodes) > 0 && e.m.ffState() != nil {
		e.ffRun(&ffChase, 3*len(nodes), start, func(x int) {
			i := x / 3
			switch x % 3 {
			case 0:
				dep := uint8(3)
				if i == 0 {
					dep = 0
				}
				e.Load(nodes[i], 8, dep)
			case 1:
				e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
			default:
				e.Branch(i < len(nodes)-1, start)
				e.m.cursor.PC = start
			}
		})
		e.m.cursor.PC = start + 12
		return
	}
	for i, a := range nodes {
		e.m.cursor.PC = start
		dep := uint8(3) // the previous iteration's load
		if i == 0 {
			dep = 0 // head pointer is already in a register
		}
		e.Load(a, 8, dep)
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
		e.Branch(i < len(nodes)-1, start)
		e.m.cursor.PC = start
	}
	if len(nodes) > 0 {
		e.m.cursor.PC = start + 12
	}
}

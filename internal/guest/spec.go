package guest

import (
	"fssim/internal/kernel"
	"fssim/internal/machine"
)

// The four SPEC2000-like compute kernels: overwhelmingly user-mode programs
// whose OS activity is limited to startup demand paging and rare timing
// calls — the control group of the paper's Figures 1 and 2. Each models the
// memory-access shape of its namesake: gzip's hash-table compression, vpr's
// random placement moves, art's neural-network array scans, and swim's
// grid stencils.

// SpecConfig scales a kernel's outer iteration count: Work overrides the
// default absolute count; otherwise WorkScale multiplies it (0 = 1.0).
type SpecConfig struct {
	Work      int
	WorkScale float64
}

// SetupSpec installs the named SPEC-like workload ("gzip", "vpr", "art",
// "swim") with the given work factor (0 = default).
func SetupSpec(k *kernel.Kernel, name string, cfg SpecConfig) {
	code := machine.NewCodeMap(machine.UserCodeBase + 0x180000)
	entry := code.Fn(4096)
	// Every kernel runs its inner iteration at a fixed code address so the
	// hot loop replays the same I-cache lines, like compiled loop bodies do.
	iterPC := code.Fn(2048)
	var body func(*kernel.Proc)
	switch name {
	case "gzip":
		body = func(p *kernel.Proc) { gzipBody(p, cfg.scaledWork(8000), iterPC) }
	case "vpr":
		body = func(p *kernel.Proc) { vprBody(p, cfg.scaledWork(36000), iterPC) }
	case "art":
		body = func(p *kernel.Proc) { artBody(p, cfg.scaledWork(1500), iterPC) }
	case "swim":
		body = func(p *kernel.Proc) { swimBody(p, cfg.scaledWork(340), iterPC) }
	default:
		panic("guest: unknown SPEC kernel " + name)
	}
	t := k.Spawn(name, body)
	t.SetEntry(entry)
}

// scaledWork applies cfg to the kernel's default iteration count.
func (cfg SpecConfig) scaledWork(def int) int {
	if cfg.Work > 0 {
		return cfg.Work
	}
	s := cfg.WorkScale
	if s <= 0 {
		s = 1.0
	}
	n := int(float64(def) * s)
	if n < 1 {
		n = 1
	}
	return n
}

// lcg is a deterministic address scrambler for the table-lookup kernels.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = lcg(uint64(*l)*6364136223846793005 + 1442695040888963407)
	return uint64(*l >> 16)
}

// gzipBody models deflate: stream input blocks through a hash-chain match
// search over a 64KB table with a 256KB input window and 128KB output.
func gzipBody(p *kernel.Proc, work int, iterPC uint64) {
	const (
		inSize    = 256 << 10
		tableSize = 64 << 10
		outSize   = 128 << 10
	)
	in := p.Brk(inSize)
	table := p.Brk(tableSize)
	out := p.Brk(outSize)
	warmPages(p, in, inSize)
	warmPages(p, table, tableSize)
	warmPages(p, out, outSize)
	rng := lcg(12345)
	var inOff, outOff uint64
	p.U.Loop(work, func(blk int) {
		p.U.Call(iterPC)
		p.U.Loop(16, func(i int) {
			p.U.Load(in+inOff, 8, 1) // next input bytes
			p.U.Chain(3)             // rolling hash
			h := rng.next() % (tableSize - 8)
			p.U.Load(table+h&^7, 8, 1) // hash-chain head probe
			p.U.Ops(3)                 // match-length compare
			p.U.Store(table+h&^7, 8)   // chain update
			p.U.Store(out+outOff, 8)   // emit token
			inOff = (inOff + 64) % inSize
			outOff = (outOff + 32) % outSize
		})
		p.U.Mix(24) // block bookkeeping
		p.U.Ret()
		if blk%1024 == 1023 {
			p.Gettimeofday()
		}
	})
}

// vprBody models simulated-annealing placement: random pairwise swaps over a
// 1.5MB netlist with short dependent walks and cost arithmetic.
func vprBody(p *kernel.Proc, work int, iterPC uint64) {
	const nodes = 1536 << 10
	arr := p.Brk(nodes)
	warmPages(p, arr, nodes)
	rng := lcg(999)
	p.U.Loop(work, func(i int) {
		a := arr + rng.next()%(nodes-128)&^63
		b := arr + rng.next()%(nodes-128)&^63
		p.U.Call(iterPC)
		// One dependent fanout walk, one independent fetch: moderate MLP.
		p.U.ChaseList([]uint64{a, a + 64})
		p.U.Load(b, 8, 0)
		p.U.Load(b+64, 8, 0)
		p.U.Mix(26) // delta-cost computation
		p.U.Store(a, 8)
		p.U.Store(b, 8)
		p.U.Ret()
		if i%8192 == 8191 {
			p.Gettimeofday()
		}
	})
}

// artBody models the ART neural net: repeated full scans of the feature and
// weight arrays (about 2.5MB combined — larger than a 1MB L2) with
// floating-point accumulation.
func artBody(p *kernel.Proc, work int, iterPC uint64) {
	const (
		f1Size = 1536 << 10
		wSize  = 1024 << 10
		chunk  = 16 << 10
	)
	f1 := p.Brk(f1Size)
	w := p.Brk(wSize)
	warmPages(p, f1, f1Size)
	warmPages(p, w, wSize)
	var off1, off2 uint64
	p.U.Loop(work, func(i int) {
		p.U.Call(iterPC)
		p.U.ScanLines(f1+off1, chunk/64, 64)
		p.U.ScanLines(w+off2, chunk/128, 64)
		p.U.FOps(96)
		p.U.FDiv()
		p.U.Ret()
		off1 = (off1 + chunk) % (f1Size - chunk)
		off2 = (off2 + chunk/2) % (wSize - chunk)
		if i%2048 == 2047 {
			p.Gettimeofday()
		}
	})
}

// swimBody models the shallow-water stencil: streaming sweeps over three
// large grids with writes to a fourth — memory-bandwidth bound at any
// reasonable L2 size.
func swimBody(p *kernel.Proc, work int, iterPC uint64) {
	const (
		gridSize = 1024 << 10
		row      = 32 << 10
	)
	u := p.Brk(gridSize)
	v := p.Brk(gridSize)
	z := p.Brk(gridSize)
	h := p.Brk(gridSize)
	warmPages(p, u, gridSize)
	warmPages(p, v, gridSize)
	warmPages(p, z, gridSize)
	warmPages(p, h, gridSize)
	var off uint64
	p.U.Loop(work, func(i int) {
		p.U.Call(iterPC)
		p.U.ScanLines(u+off, row/64, 64)
		p.U.ScanLines(v+off, row/64, 64)
		p.U.ScanLines(z+off, row/64, 64)
		p.U.FOps(128)
		p.U.WriteLines(h+off, row/64, 64)
		p.U.Ret()
		off = (off + row) % (gridSize - row)
		if i%512 == 511 {
			p.Gettimeofday()
		}
	})
}

// warmPages touches each page of a fresh allocation once, taking the
// demand-paging faults during initialization the way real programs do.
func warmPages(p *kernel.Proc, base uint64, size uint64) {
	p.U.Loop(int(size/4096), func(i int) {
		p.U.Store(base+uint64(i)*4096, 8)
	})
}

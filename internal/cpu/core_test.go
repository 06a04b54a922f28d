package cpu

import (
	"math/rand"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// streamLoads issues n independent 8-byte loads, 64 bytes apart, mimicking a
// streaming scan, and returns cycles per load.
func streamLoads(t *testing.T, core Core, n int, base uint64) float64 {
	t.Helper()
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		core.Exec(&isa.Inst{Op: isa.ALU, PC: pc, Dep: 4}, cache.OwnerApp)
		core.Exec(&isa.Inst{Op: isa.LOAD, PC: pc + 4, Addr: base + uint64(i)*64, Size: 8, Dep: 1}, cache.OwnerApp)
		core.Exec(&isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1}, cache.OwnerApp)
		core.Exec(&isa.Inst{Op: isa.BRANCH, PC: pc + 12, Taken: i < n-1, Target: pc}, cache.OwnerApp)
	}
	return float64(core.Now()) / float64(n)
}

// TestOOOStreamingOverlap checks that independent missing loads overlap:
// a streaming scan must be bounded by bus bandwidth (~40 cycles/line), not
// serialized at full memory latency (300+ cycles/line).
func TestOOOStreamingOverlap(t *testing.T) {
	mem := memsys.New(memsys.DefaultConfig())
	core := NewOOO(DefaultConfig(), mem)
	cpl := streamLoads(t, core, 4000, 0x10_000_000) // 256KB: misses everywhere
	t.Logf("streaming: %.1f cycles/line", cpl)
	if cpl > 80 {
		t.Errorf("streaming loads do not overlap: %.1f cycles/line (want <80)", cpl)
	}
	if cpl < 35 {
		t.Errorf("streaming loads beat the bus bandwidth bound: %.1f cycles/line", cpl)
	}
}

// TestOOOCacheHitIPC checks that an L1-resident scan runs at multiple
// instructions per cycle.
func TestOOOCacheHitIPC(t *testing.T) {
	mem := memsys.New(memsys.DefaultConfig())
	core := NewOOO(DefaultConfig(), mem)
	scan := func(rounds int) {
		for r := 0; r < rounds; r++ {
			pc := uint64(0x1000)
			for i := 0; i < 128; i++ {
				core.Exec(&isa.Inst{Op: isa.ALU, PC: pc, Dep: 4}, cache.OwnerApp)
				core.Exec(&isa.Inst{Op: isa.LOAD, PC: pc + 4, Addr: 0x2000 + uint64(i)*64, Size: 8, Dep: 1}, cache.OwnerApp)
				core.Exec(&isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1}, cache.OwnerApp)
				core.Exec(&isa.Inst{Op: isa.BRANCH, PC: pc + 12, Taken: i < 127, Target: pc}, cache.OwnerApp)
			}
		}
	}
	scan(5) // warm caches and predictor
	insts0, now0 := core.Retired(), core.Now()
	scan(15)
	ipc := float64(core.Retired()-insts0) / float64(core.Now()-now0)
	t.Logf("warm cache-hit scan IPC %.2f", ipc)
	if ipc < 1.5 {
		t.Errorf("warm cache-hit scan IPC %.2f, want >= 1.5", ipc)
	}
}

// TestInOrderSlower checks the in-order model is substantially slower than
// OOO on the same missing stream (it cannot overlap misses).
func TestInOrderSlower(t *testing.T) {
	memA := memsys.New(memsys.DefaultConfig())
	ooo := NewOOO(DefaultConfig(), memA)
	fast := streamLoads(t, ooo, 2000, 0x20_000_000)
	memB := memsys.New(memsys.DefaultConfig())
	ino := NewInOrder(DefaultConfig(), memB)
	slow := streamLoads(t, ino, 2000, 0x20_000_000)
	t.Logf("ooo=%.1f inorder=%.1f cycles/line", fast, slow)
	if slow < fast*2 {
		t.Errorf("in-order (%.1f) should be much slower than OOO (%.1f)", slow, fast)
	}
}

// TestMispredictPenalty verifies branch mispredictions cost cycles.
func TestMispredictPenalty(t *testing.T) {
	run := func(taken func(i int) bool) uint64 {
		core := NewOOO(DefaultConfig(), nil)
		for i := 0; i < 10000; i++ {
			core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x100}, cache.OwnerApp)
			core.Exec(&isa.Inst{Op: isa.BRANCH, PC: 0x104, Taken: taken(i), Target: 0x100}, cache.OwnerApp)
		}
		return core.Now()
	}
	rng := rand.New(rand.NewSource(42))
	predictable := run(func(i int) bool { return true })
	random := run(func(i int) bool { return rng.Intn(2) == 0 })
	t.Logf("predictable=%d random=%d cycles", predictable, random)
	if random <= predictable {
		t.Errorf("random branches (%d) should cost more than predictable (%d)", random, predictable)
	}
}

// TestSkipTo checks fast-forward semantics: the clock moves forward, never
// backward, and execution resumes cleanly.
func TestSkipTo(t *testing.T) {
	for _, mk := range []func() Core{
		func() Core { return NewOOO(DefaultConfig(), memsys.New(memsys.DefaultConfig())) },
		func() Core { return NewInOrder(DefaultConfig(), memsys.New(memsys.DefaultConfig())) },
	} {
		core := mk()
		core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x100}, cache.OwnerApp)
		before := core.Now()
		core.SkipTo(before + 100000)
		if core.Now() != before+100000 {
			t.Fatalf("SkipTo landed at %d", core.Now())
		}
		core.SkipTo(before) // backwards: no-op
		if core.Now() != before+100000 {
			t.Fatalf("SkipTo moved backwards to %d", core.Now())
		}
		// Execution resumes with instructions committing after the skip.
		core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x104}, cache.OwnerApp)
		if core.Now() < before+100000 {
			t.Fatalf("post-skip commit at %d", core.Now())
		}
	}
}

// TestSyscallSerializes checks that SYSCALL/IRET drain the pipeline: they
// cost the configured mode-switch penalty.
func TestSyscallSerializes(t *testing.T) {
	cfg := DefaultConfig()
	core := NewOOO(cfg, nil)
	for i := 0; i < 100; i++ {
		core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x100}, cache.OwnerApp)
	}
	before := core.Now()
	core.Exec(&isa.Inst{Op: isa.SYSCALL, PC: 0x104}, cache.OwnerApp)
	if d := core.Now() - before; d < uint64(cfg.ModeSwitchCycles) {
		t.Fatalf("syscall cost %d cycles, want >= %d", d, cfg.ModeSwitchCycles)
	}
}

// TestRetireWidthBound checks that IPC cannot exceed the retire width even
// for pure independent ALU streams.
func TestRetireWidthBound(t *testing.T) {
	cfg := DefaultConfig()
	core := NewOOO(cfg, nil)
	n := 30000
	for i := 0; i < n; i++ {
		core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x100 + uint64(i%16)*4}, cache.OwnerApp)
	}
	ipc := float64(core.Retired()) / float64(core.Now())
	if ipc > float64(cfg.RetireWidth)+0.01 {
		t.Fatalf("IPC %.2f exceeds retire width %d", ipc, cfg.RetireWidth)
	}
	if ipc < float64(cfg.RetireWidth)-0.5 {
		t.Fatalf("independent ALU stream IPC %.2f, want close to retire width", ipc)
	}
}

// TestDependenceChainLimitsIPC: a fully serial chain must run at ~1 IPC.
func TestDependenceChainLimitsIPC(t *testing.T) {
	core := NewOOO(DefaultConfig(), nil)
	n := 20000
	for i := 0; i < n; i++ {
		core.Exec(&isa.Inst{Op: isa.ALU, PC: 0x100, Dep: 1}, cache.OwnerApp)
	}
	ipc := float64(core.Retired()) / float64(core.Now())
	if ipc > 1.05 {
		t.Fatalf("serial chain IPC %.2f > 1", ipc)
	}
}

// TestLongLatencyDepChain: dependent divides serialize at the divide latency.
func TestLongLatencyDepChain(t *testing.T) {
	core := NewOOO(DefaultConfig(), nil)
	n := 1000
	for i := 0; i < n; i++ {
		core.Exec(&isa.Inst{Op: isa.DIV, PC: 0x100, Dep: 1}, cache.OwnerApp)
	}
	perOp := float64(core.Now()) / float64(n)
	if perOp < 19 || perOp > 22 {
		t.Fatalf("dependent divides at %.1f cycles each, want ~20", perOp)
	}
}

// TestPredictorLearnsLoop: a loop branch pattern becomes predictable.
func TestPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(12)
	// Steady taken branch: after the global history register saturates, the
	// predictor settles on one counter and stops missing.
	for i := 0; i < 512; i++ {
		bp.Predict(0x400, true)
	}
	lo, mo := bp.Stats()
	if float64(mo)/float64(lo) > 0.08 {
		t.Fatalf("steady branch mispredicted %d/%d", mo, lo)
	}
}

// TestStoreDrainDoesNotStall: a burst of independent store misses must not
// inflate commit time (posted through the store buffer).
func TestStoreDrainDoesNotStall(t *testing.T) {
	core := NewOOO(DefaultConfig(), memsys.New(memsys.DefaultConfig()))
	n := 2000
	for i := 0; i < n; i++ {
		core.Exec(&isa.Inst{Op: isa.STORE, PC: 0x100,
			Addr: 0x40_000_000 + uint64(i)*64, Size: 64}, cache.OwnerApp)
	}
	perOp := float64(core.Now()) / float64(n)
	if perOp > 3 {
		t.Fatalf("store stream at %.1f cycles each; stores should post", perOp)
	}
}

// TestSkipToNeedsNoClamp checks that SkipTo leaves the completion/commit
// history as it is without changing any result: random interleavings of
// Exec, back-to-back SkipTo and SkipTo below lastCommit must commit every
// instruction at the same cycle, and leave the same history, as a
// reference core whose every SkipTo clamps all 512 slots to the resume
// point — because no entry ever lies beyond lastCommit.
func TestSkipToNeedsNoClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	got := NewOOO(DefaultConfig(), memsys.New(memsys.DefaultConfig()))
	ref := NewOOO(DefaultConfig(), memsys.New(memsys.DefaultConfig()))
	ops := []isa.Opcode{isa.ALU, isa.MUL, isa.DIV, isa.LOAD, isa.STORE, isa.BRANCH, isa.SYSCALL}
	skips := 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			in := isa.Inst{
				Op:    ops[rng.Intn(len(ops))],
				PC:    0x1000 + uint64(rng.Intn(256))*4,
				Addr:  0x10_000_000 + uint64(rng.Intn(1<<12))*64,
				Size:  8,
				Dep:   uint8(rng.Intn(4)),
				Taken: rng.Intn(2) == 0,
			}
			got.Exec(&in, cache.OwnerOS)
			ref.Exec(&in, cache.OwnerOS)
		default:
			// Forward, repeated, or below lastCommit (a no-op clock move).
			cycle := got.Now() + uint64(rng.Intn(3))*uint64(rng.Intn(600))
			if r == 9 {
				cycle = got.Now() - uint64(rng.Intn(int(got.Now())+1))
			}
			got.SkipTo(cycle)
			ref.SkipTo(cycle)
			for i := range ref.comp {
				ref.comp[i] = min(ref.comp[i], ref.Now())
				ref.cmt[i] = min(ref.cmt[i], ref.Now())
			}
			skips++
		}
		if got.Now() != ref.Now() || got.comp != ref.comp || got.cmt != ref.cmt {
			t.Fatalf("step %d (%d skips): now %d vs reference %d, or history differs",
				step, skips, got.Now(), ref.Now())
		}
	}
}

// TestExecBatchMatchesExec runs one random stream through both cores twice:
// one Exec per instruction, and ExecBatch over random splits with random
// stop cycles. Each batch must stop right after the first instruction whose
// one-by-one commit reaches its stop, return that commit, and leave the
// same clock, retired count, predictor and cache statistics.
func TestExecBatchMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []isa.Opcode{isa.ALU, isa.ALU, isa.MUL, isa.FPU, isa.LOAD, isa.LOAD, isa.STORE, isa.BRANCH, isa.SYSCALL}
	stream := make([]isa.Inst, 20000)
	for i := range stream {
		stream[i] = isa.Inst{
			Op:    ops[rng.Intn(len(ops))],
			PC:    0x1000 + uint64(rng.Intn(512))*4,
			Addr:  0x10_000_000 + uint64(rng.Intn(1<<14))*64,
			Size:  8,
			Dep:   uint8(rng.Intn(5)),
			Dep2:  uint8(rng.Intn(3)),
			Taken: rng.Intn(2) == 0,
		}
	}
	cores := map[string]func(*memsys.Hierarchy) Core{
		"ooo":     func(h *memsys.Hierarchy) Core { return NewOOO(DefaultConfig(), h) },
		"inorder": func(h *memsys.Hierarchy) Core { return NewInOrder(DefaultConfig(), h) },
	}
	for name, mk := range cores {
		refMem, gotMem := memsys.New(memsys.DefaultConfig()), memsys.New(memsys.DefaultConfig())
		ref, got := mk(refMem), mk(gotMem)
		now := make([]uint64, len(stream))
		for i := range stream {
			now[i] = ref.Exec(&stream[i], cache.OwnerOS)
		}
		for x := 0; x < len(stream); {
			end := min(x+1+rng.Intn(64), len(stream))
			stop := now[x] + uint64(rng.Intn(200))
			if rng.Intn(4) == 0 {
				stop = ^uint64(0)
			}
			want := x + 1
			for want < end && now[want-1] < stop {
				want++
			}
			n, c := got.ExecBatch(stream[x:end], cache.OwnerOS, stop)
			if x+n != want || c != now[want-1] || got.Now() != c {
				t.Fatalf("%s: batch [%d, %d) stop %d ran to %d at cycle %d (Now %d), want %d at %d",
					name, x, end, stop, x+n, c, got.Now(), want, now[want-1])
			}
			x = want
		}
		gl, gm := got.Predictor().Stats()
		rl, rm := ref.Predictor().Stats()
		if got.Retired() != ref.Retired() || gl != rl || gm != rm || gotMem.Stats() != refMem.Stats() {
			t.Fatalf("%s: retired %d, predictor (%d, %d), mem %+v; one by one %d, (%d, %d), %+v",
				name, got.Retired(), gl, gm, gotMem.Stats(), ref.Retired(), rl, rm, refMem.Stats())
		}
	}
}

package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/isa"
)

// emitAPI is the emission surface a fast-forward program drives. Emitter
// (with its bulk paths) and refEmitter (the per-instruction reference) both
// implement it, so one program runs on both.
type emitAPI interface {
	Ops(n int)
	Chain(n int)
	Mix(n int)
	FOps(n int)
	CopyLines(dst, src uint64, n int)
	ScanLines(addr uint64, n int, stride uint64)
	WriteLines(addr uint64, n int, stride uint64)
	ChaseList(nodes []uint64)
	Load(addr uint64, size int, dep uint8)
	Store(addr uint64, size int)
	Branch(taken bool, target uint64)
	Call(pc uint64)
	Ret()
}

// refEmitter expands every helper into its instruction stream, written out
// independently of emitter.go, and runs each instruction through
// Machine.Exec: the per-instruction reference the bulk paths must match.
type refEmitter struct{ m *Machine }

func (r refEmitter) exec(in isa.Inst) {
	in.PC = r.m.cursor.PC
	r.m.cursor.PC += 4
	r.m.Exec(&in)
}

func (r refEmitter) Ops(n int) {
	for i := 0; i < n; i++ {
		r.exec(isa.Inst{Op: isa.ALU})
	}
}

func (r refEmitter) Chain(n int) {
	for i := 0; i < n; i++ {
		r.exec(isa.Inst{Op: isa.ALU, Dep: 1})
	}
}

func (r refEmitter) Mix(n int) {
	for i := 0; i < n; i++ {
		switch i & 7 {
		case 3:
			r.exec(isa.Inst{Op: isa.ALU, Dep: 1})
		case 5:
			r.exec(isa.Inst{Op: isa.ALU, Dep: 2})
		case 7:
			r.exec(isa.Inst{Op: isa.MUL})
		default:
			r.exec(isa.Inst{Op: isa.ALU})
		}
	}
}

func (r refEmitter) FOps(n int) {
	for i := 0; i < n; i++ {
		if i&3 == 3 {
			r.exec(isa.Inst{Op: isa.FPU, Dep: 1})
		} else {
			r.exec(isa.Inst{Op: isa.FPU})
		}
	}
}

func (r refEmitter) Load(addr uint64, size int, dep uint8) {
	r.exec(isa.Inst{Op: isa.LOAD, Addr: addr, Size: uint8(size), Dep: dep})
}

func (r refEmitter) Store(addr uint64, size int) {
	r.exec(isa.Inst{Op: isa.STORE, Addr: addr, Size: uint8(size)})
}

func (r refEmitter) Branch(taken bool, target uint64) {
	r.exec(isa.Inst{Op: isa.BRANCH, Taken: taken, Target: target})
	if taken {
		r.m.cursor.PC = target
	}
}

func (r refEmitter) Call(pc uint64) {
	r.m.cursor.stack = append(r.m.cursor.stack, r.m.cursor.PC+4)
	r.exec(isa.Inst{Op: isa.BRANCH, Taken: true, Target: pc})
	r.m.cursor.PC = pc
}

func (r refEmitter) Ret() {
	st := r.m.cursor.stack
	if len(st) == 0 {
		r.exec(isa.Inst{Op: isa.BRANCH, Taken: true, Target: r.m.cursor.PC})
		return
	}
	target := st[len(st)-1]
	r.m.cursor.stack = st[:len(st)-1]
	r.exec(isa.Inst{Op: isa.BRANCH, Taken: true, Target: target})
	r.m.cursor.PC = target
}

func (r refEmitter) loop(iters int, body func(i int)) {
	start := r.m.cursor.PC
	for i := 0; i < iters; i++ {
		r.m.cursor.PC = start
		body(i)
		r.Branch(i < iters-1, start)
		if i < iters-1 {
			r.m.cursor.PC = start
		}
	}
}

func (r refEmitter) CopyLines(dst, src uint64, n int) {
	r.loop(n, func(i int) {
		off := uint64(i) * 64
		r.exec(isa.Inst{Op: isa.ALU, Dep: 4})
		r.Load(src+off, 64, 1)
		r.Store(dst+off, 64)
	})
}

func (r refEmitter) ScanLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	r.loop(n, func(i int) {
		r.exec(isa.Inst{Op: isa.ALU, Dep: 4})
		r.Load(addr+uint64(i)*stride, 8, 1)
		r.exec(isa.Inst{Op: isa.ALU, Dep: 1})
	})
}

func (r refEmitter) WriteLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	r.loop(n, func(i int) {
		r.exec(isa.Inst{Op: isa.ALU, Dep: 3})
		r.Store(addr+uint64(i)*stride, 64)
	})
}

func (r refEmitter) ChaseList(nodes []uint64) {
	start := r.m.cursor.PC
	for i, a := range nodes {
		r.m.cursor.PC = start
		dep := uint8(3)
		if i == 0 {
			dep = 0
		}
		r.Load(a, 8, dep)
		r.exec(isa.Inst{Op: isa.ALU, Dep: 1})
		r.Branch(i < len(nodes)-1, start)
		r.m.cursor.PC = start
	}
	if len(nodes) > 0 {
		r.m.cursor.PC = start + 12
	}
}

// ffSink is both interval sinks of a fast-forward scenario. Its decisions
// and CPI estimates come from its own seeded stream, so two machines that
// make the same sink calls in the same order get the same answers; every
// call is logged. An interval is detailed with probability detail/4.
type ffSink struct {
	rng    *rand.Rand
	log    *[]string
	pred   Prediction
	detail int
}

// ffCPIs are the service CPIs a scenario draws from: virtCPI = 0.9×CPI
// spans roughly 5000 instructions per clock flush down to a flush on every
// instruction. 2.2222222222222223 makes virtCPI exactly 2, so virtFrac
// lands exactly on the 512 flush threshold.
var ffCPIs = []float64{0.1, 0.7, 1.3, 2.2222222222222223, 2.9, 45, 600}

func (s *ffSink) decide() (bool, float64) {
	return s.rng.Intn(4) < s.detail, ffCPIs[s.rng.Intn(len(ffCPIs))]
}

func (s *ffSink) predict(sig Signature, meas *Measurement) *Prediction {
	if meas != nil {
		return nil
	}
	s.pred = Prediction{
		Cycles:    2*sig.Insts + 7*sig.Loads,
		L1DMisses: sig.Loads / 4, L1DAccesses: sig.Loads + sig.Stores,
		L2Misses: sig.Stores / 8, L2Accesses: sig.Loads / 4,
	}
	return &s.pred
}

func (s *ffSink) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	d, cpi := s.decide()
	*s.log = append(*s.log, fmt.Sprintf("svc-start %v detailed=%v cpi=%v", svc, d, cpi))
	return d, cpi
}

func (s *ffSink) OnServiceEnd(svc isa.ServiceID, sig Signature, meas *Measurement) *Prediction {
	*s.log = append(*s.log, fmt.Sprintf("svc-end %v sig=%+v measured=%v", svc, sig, meas != nil))
	return s.predict(sig, meas)
}

func (s *ffSink) OnAppStart() (bool, float64) {
	d, cpi := s.decide()
	*s.log = append(*s.log, fmt.Sprintf("app-start detailed=%v cpi=%v", d, cpi))
	return d, cpi
}

func (s *ffSink) OnAppEnd(sig Signature, meas *Measurement) *Prediction {
	*s.log = append(*s.log, fmt.Sprintf("app-end sig=%+v measured=%v", sig, meas != nil))
	return s.predict(sig, meas)
}

// ffConfigs are the machine configurations a scenario runs on: the three
// simulation modes on the default platform, and the in-order core, TLBs and
// the L2 prefetcher in Accelerated mode.
var ffConfigs = []struct {
	name string
	set  func(*Config)
}{
	{"accel", func(*Config) {}},
	{"full", func(c *Config) { c.Mode = FullSystem }},
	{"apponly", func(c *Config) { c.Mode = AppOnly }},
	{"inorder", func(c *Config) { c.Core = CoreInOrder }},
	{"tlb", func(c *Config) { c.Mem = c.Mem.WithTLB() }},
	{"prefetch", func(c *Config) { c.Mem = c.Mem.WithPrefetch() }},
}

// ffRunResult is what one scenario run observed.
type ffRunResult struct {
	m        *Machine
	config   int // index into ffConfigs
	log      []string
	ffFires  int      // handler firings while the machine was fast-forwarding
	detFires int      // handler firings inside a detailed interval
	touched  []uint64 // every data address the program and handlers named
}

// runFFScenario executes the program prog on a fresh machine with both sinks
// attached, through the bulk-capable Emitter or (ref) the per-instruction
// reference. seed picks the machine configuration (ffConfigs) and how often
// the sinks choose detail, and drives helper sizes, sink decisions and a set
// of device events falling due mid-helper; the handlers log where they fire
// and may emit an interrupt's worth of instructions, flip the kernel depth
// (closing or opening intervals under the running helper), or schedule a
// follow-up event.
func runFFScenario(seed int64, prog []byte, ref bool) ffRunResult {
	var res ffRunResult
	axes := rand.New(rand.NewSource(seed ^ 0xa7e5))
	cfg := DefaultConfig()
	cfg.Mode = Accelerated
	res.config = axes.Intn(len(ffConfigs))
	ffConfigs[res.config].set(&cfg)
	m := New(cfg)
	res.m = m
	var api emitAPI = m.Emitter()
	if ref {
		api = refEmitter{m}
	}
	sink := &ffSink{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), log: &res.log, detail: 1 + axes.Intn(4)}
	m.SetSink(sink)
	m.SetAppSink(sink)
	rng := rand.New(rand.NewSource(seed))
	touch := func(base uint64, n int, stride uint64) {
		for i := 0; i < n; i++ {
			res.touched = append(res.touched, base+uint64(i)*stride)
		}
	}

	var handler EventOp
	handler = m.RegisterOp(func(kind, b uint64) {
		if m.ffState() != nil {
			res.ffFires++
		} else if m.cur != nil {
			res.detFires++
		}
		res.log = append(res.log, fmt.Sprintf("fire kind=%d b=%d insts=%d pc=%#x now=%d depth=%d",
			kind, b, m.totalInsts, m.cursor.PC, m.Now(), m.depth))
		switch kind {
		case 1: // an interrupt: nested kernel entry with a short handler
			m.KEnter(isa.Irq(uint16(40 + b%3)))
			api.Call(0x9000)
			api.Ops(int(b % 97))
			api.Load(0x7000+b*64, 8, 0)
			touch(0x7000+b*64, 1, 0)
			api.Ret()
			m.KExit()
		case 2: // a context switch to the other privilege level
			if m.depth > 0 {
				m.SetDepth(0, isa.ServiceID{})
			} else {
				m.SetDepth(1, isa.Sys(isa.SysPoll))
			}
		case 3: // re-arm: another event shortly after
			m.ScheduleOp(m.Now()+b%3000, handler, b%3, b/3)
		case 4: // a tick train: b more ticks, a few dozen cycles apart,
			// every 7th raising an interrupt in the same poll
			if b%7 == 0 {
				m.ScheduleOp(m.Now(), handler, 1, b)
			}
			if b > 0 {
				m.ScheduleOp(m.Now()+1+b%61, handler, 4, b-1)
			}
		}
	})
	for i, n := 0, rng.Intn(10); i < n; i++ {
		m.ScheduleOp(uint64(rng.Intn(60000)), handler, uint64(rng.Intn(4)), uint64(rng.Intn(1<<16)))
	}
	if axes.Intn(2) == 0 {
		// Dense firing points make events land on every instruction class
		// of a detailed batch, taken back-branches included, and on the
		// last iteration of a loop helper.
		m.ScheduleOp(uint64(axes.Intn(20000)), handler, 4, uint64(axes.Intn(2000)))
	}

	if rng.Intn(2) == 0 {
		m.KEnter(isa.Sys(isa.SysRead))
	}
	addr := func() uint64 {
		a := 0x100000 + uint64(rng.Intn(1<<14))*64
		touch(a, 1, 0)
		return a
	}
	for i, b := range prog {
		switch b % 16 {
		case 0:
			api.Ops(rng.Intn(3000))
		case 1:
			api.Chain(rng.Intn(600))
		case 2:
			api.Mix(rng.Intn(3000))
		case 3:
			api.FOps(rng.Intn(600))
		case 4:
			dst, src, n := addr(), addr(), rng.Intn(300)
			touch(dst, n, 64)
			touch(src, n, 64)
			api.CopyLines(dst, src, n)
		case 5:
			a, n, stride := addr(), rng.Intn(300), uint64(rng.Intn(3))*64
			touch(a, n, max(stride, 64))
			api.ScanLines(a, n, stride)
		case 6:
			a, n, stride := addr(), rng.Intn(300), uint64(rng.Intn(3))*64
			touch(a, n, max(stride, 64))
			api.WriteLines(a, n, stride)
		case 7:
			nodes := make([]uint64, rng.Intn(200))
			for j := range nodes {
				nodes[j] = addr()
			}
			api.ChaseList(nodes)
		case 8:
			api.Load(addr(), 8, uint8(rng.Intn(3)))
		case 9:
			api.Store(addr(), 8)
		case 10:
			api.Branch(rng.Intn(2) == 0, 0x400000+uint64(rng.Intn(64))*4)
		case 11:
			api.Call(0x500000 + uint64(rng.Intn(64))*64)
		case 12:
			api.Ret()
		case 13:
			m.KEnter(isa.Sys(uint16(3 + rng.Intn(4))))
		case 14:
			if m.depth > 0 {
				m.KExit()
			}
		default:
			api.Ops(rng.Intn(3))
		}
		res.log = append(res.log, fmt.Sprintf("op %d kind=%d insts=%d pc=%#x now=%d",
			i, b%16, m.totalInsts, m.cursor.PC, m.Now()))
	}
	for m.depth > 0 {
		m.KExit()
	}
	m.FinishApp()
	return res
}

// ffMachineState is every counter and register the bulk and batch paths
// touch, down to the core's clock and predictor and the cache contents.
type ffMachineState struct {
	Stats             Stats
	OSIval, AppIval   interval
	OSOpen, AppOpen   bool
	Total, User, OS   uint64
	PC                uint64
	Stack             []uint64
	Now, Retired      uint64
	Lookups, Mispreds uint64
	VirtFrac          uint64 // float bits: rounding must match exactly
	Depth             int
	Owned             [3][2]int // app and OS lines in L1I, L1D, L2
	ITLB, DTLB        [2]uint64 // accesses, misses
	DRAM, Prefetches  uint64
	Present           []bool // per touched address: L1D and L2 Probe
}

func ffStateOf(res ffRunResult) ffMachineState {
	m := res.m
	st := ffMachineState{
		Stats: m.Stats(), OSIval: m.os, AppIval: m.app,
		OSOpen: m.cur == &m.os, AppOpen: m.cur == &m.app,
		Total: m.totalInsts, User: m.userInsts, OS: m.osInsts,
		PC: m.cursor.PC, Stack: m.cursor.stack,
		Now: m.Now(), Retired: m.core.Retired(),
		VirtFrac: math.Float64bits(m.virtFrac), Depth: m.depth,
	}
	st.Lookups, st.Mispreds = m.core.Predictor().Stats()
	h := m.mem
	for i, c := range []*cache.Cache{h.L1I(), h.L1D(), h.L2()} {
		st.Owned[i][0], st.Owned[i][1] = c.OwnedLines()
	}
	it, dt := h.TLBStats()
	st.ITLB, st.DTLB = [2]uint64{it.Accesses, it.Misses}, [2]uint64{dt.Accesses, dt.Misses}
	st.DRAM, st.Prefetches = h.DRAMAccesses(), h.Prefetches()
	for _, a := range res.touched {
		st.Present = append(st.Present, h.L1D().Probe(a), h.L2().Probe(a))
	}
	return st
}

// checkFFScenario runs one scenario both ways and fails on any difference.
func checkFFScenario(t *testing.T, seed int64, prog []byte) ffRunResult {
	t.Helper()
	got := runFFScenario(seed, prog, false)
	want := runFFScenario(seed, prog, true)
	for i := 0; i < len(got.log) || i < len(want.log); i++ {
		var g, w string
		if i < len(got.log) {
			g = got.log[i]
		}
		if i < len(want.log) {
			w = want.log[i]
		}
		if g != w {
			t.Fatalf("seed %d prog %v: log diverges at entry %d\n bulk: %s\n  ref: %s", seed, prog, i, g, w)
		}
	}
	if gs, ws := ffStateOf(got), ffStateOf(want); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("seed %d prog %v: final state differs\n bulk: %+v\n  ref: %+v", seed, prog, gs, ws)
	}
	return got
}

// TestFastForwardEquivalence drives random helper sequences — every shaped
// helper, mixed with single emits, in emulated and detailed OS and
// application intervals, on every ffConfigs machine, with CPIs from
// thousands of instructions per clock flush down to one, and device events
// falling due mid-helper — through the bulk and batch paths and the
// per-instruction reference, and requires identical signatures, counters,
// cursor, clock, core and cache state, sink calls and event firing points.
func TestFastForwardEquivalence(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	var ffFires, detFires, emu, appEmu, detailed uint64
	configs := make([]int, len(ffConfigs))
	for seed := int64(0); seed < int64(n); seed++ {
		res := checkFFScenario(t, seed, ffCorpusProg(seed))
		ffFires += uint64(res.ffFires)
		detFires += uint64(res.detFires)
		emu += res.m.os.emuTotal
		appEmu += res.m.app.emuTotal
		detailed += res.m.core.Retired()
		configs[res.config]++
	}
	t.Logf("corpus: %d OS-emulated insts, %d app-emulated insts, %d detailed insts, %d events fired mid fast-forward, %d in detailed intervals, configs %v",
		emu, appEmu, detailed, ffFires, detFires, configs)
	// The corpus must actually exercise what it claims to.
	if emu == 0 || appEmu == 0 || detailed == 0 || ffFires == 0 || detFires == 0 || slices.Contains(configs, 0) {
		t.Fatalf("corpus too weak")
	}
}

// ffCorpusProg is TestFastForwardEquivalence's program for seed.
func ffCorpusProg(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed * 7919))
	prog := make([]byte, 1+rng.Intn(40))
	rng.Read(prog)
	return prog
}

// FuzzFastForwardEquivalence is TestFastForwardEquivalence's oracle over
// fuzzer-chosen programs and seeds.
func FuzzFastForwardEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 2, 4, 7})
	f.Add(int64(2), []byte{13, 0, 5, 6, 14, 2, 3})
	f.Add(int64(3), []byte{8, 9, 10, 11, 0, 12, 4, 1})
	// Corpus programs in which events fire on a detailed batch's taken
	// back-branch (14) and shift the cursor in a ChaseList's last
	// iteration (63).
	f.Add(int64(14), ffCorpusProg(14))
	f.Add(int64(63), ffCorpusProg(63))
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		checkFFScenario(t, seed, prog)
	})
}

// cpiSink fast-forwards every interval at a fixed CPI.
type cpiSink struct{ cpi float64 }

func (s cpiSink) OnServiceStart(isa.ServiceID) (bool, float64) { return false, s.cpi }
func (s cpiSink) OnServiceEnd(isa.ServiceID, Signature, *Measurement) *Prediction {
	return nil
}
func (s cpiSink) OnAppStart() (bool, float64)                  { return false, s.cpi }
func (s cpiSink) OnAppEnd(Signature, *Measurement) *Prediction { return nil }

// TestFastForwardCancelPrompt fires Machine.Cancel from an event inside a
// long fast-forwarded helper: the run must abort with *AbortError within
// one span of the cancel (at most 512/virtCPI instructions, plus the 256
// of Exec's own poll). Detailed helpers, run in batches, must abort within
// the 256.
func TestFastForwardCancelPrompt(t *testing.T) {
	helpers := map[string]func(e Emitter){
		"Ops":       func(e Emitter) { e.Ops(1 << 24) },
		"CopyLines": func(e Emitter) { e.CopyLines(0x100000, 0x4000000, 1<<22) },
	}
	for name, run := range helpers {
		for _, app := range []bool{false, true} {
			for _, cpi := range []float64{0.3, 1.3, 4} {
				m := newTestMachine(Accelerated)
				if app {
					m.SetAppSink(cpiSink{cpi})
					m.Emitter().Ops(1) // opens the fast-forwarded app interval
				} else {
					m.SetSink(cpiSink{cpi})
					m.KEnter(isa.Sys(isa.SysRead))
				}
				if m.ffState() == nil {
					t.Fatalf("%s app=%v: machine not fast-forwarding", name, app)
				}
				var at uint64
				op := m.RegisterOp(func(_, _ uint64) {
					at = m.totalInsts
					m.Cancel(nil)
				})
				m.ScheduleOp(20000, op, 0, 0)
				var got any
				func() {
					defer func() { got = recover() }()
					run(m.Emitter())
				}()
				var ae *AbortError
				if err, ok := got.(error); !ok || !errors.As(err, &ae) || !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s app=%v cpi=%v: recovered %v, want *AbortError(ErrCanceled)", name, app, cpi, got)
				}
				bound := uint64(512/(0.9*cpi)) + 256
				if at == 0 || m.totalInsts-at > bound {
					t.Errorf("%s app=%v cpi=%v: canceled at inst %d, aborted at %d (%d later, bound %d)",
						name, app, cpi, at, m.totalInsts, m.totalInsts-at, bound)
				}
			}
		}
		for _, core := range []CoreKind{CoreOOO, CoreInOrder} {
			cfg := DefaultConfig()
			cfg.Core = core
			m := New(cfg)
			var at uint64
			m.ScheduleOp(20000, m.RegisterOp(func(_, _ uint64) {
				at = m.totalInsts
				m.Cancel(nil)
			}), 0, 0)
			got := func() (got any) {
				defer func() { got = recover() }()
				run(m.Emitter())
				return nil
			}()
			var ae *AbortError
			if err, ok := got.(error); !ok || !errors.As(err, &ae) || !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s detailed core=%d: recovered %v, want *AbortError(ErrCanceled)", name, core, got)
			}
			if at == 0 || m.totalInsts-at > 256 {
				t.Errorf("%s detailed core=%d: canceled at inst %d, aborted at %d (%d later, bound 256)",
					name, core, at, m.totalInsts, m.totalInsts-at)
			}
		}
	}
}

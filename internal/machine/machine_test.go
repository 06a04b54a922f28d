package machine

import (
	"testing"

	"fssim/internal/isa"
)

func newTestMachine(mode SimMode) *Machine {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return New(cfg)
}

func TestIntervalBoundaries(t *testing.T) {
	m := newTestMachine(FullSystem)
	var recs []IntervalRecord
	m.SetObserver(func(r IntervalRecord) { recs = append(recs, r) })
	e := m.Emitter()

	e.Ops(10) // user
	m.KEnter(isa.Sys(isa.SysRead))
	e.Ops(100)
	m.KEnter(isa.Irq(isa.IrqTimer)) // nested: folds into sys_read
	e.Ops(50)
	m.KExit()
	e.Ops(25)
	e.Iret()
	m.KExit()
	e.Ops(5) // user

	if len(recs) != 1 {
		t.Fatalf("intervals = %d, want 1 (nested folds)", len(recs))
	}
	r := recs[0]
	if r.Service != isa.Sys(isa.SysRead) {
		t.Errorf("interval typed %v", r.Service)
	}
	if r.Insts != 176 {
		t.Errorf("interval insts = %d, want 176", r.Insts)
	}
	if r.Cycles == 0 || r.Meas == nil {
		t.Errorf("interval not measured: %+v", r)
	}
	st := m.Stats()
	if st.OSInsts != 176 || st.UserInsts != 15 {
		t.Errorf("attribution: OS %d user %d", st.OSInsts, st.UserInsts)
	}
}

func TestSetDepthClosesAndReopens(t *testing.T) {
	m := newTestMachine(FullSystem)
	var recs []IntervalRecord
	m.SetObserver(func(r IntervalRecord) { recs = append(recs, r) })
	e := m.Emitter()

	m.KEnter(isa.Sys(isa.SysPoll))
	e.Ops(40)
	// Context switch to a user-mode context: interval closes.
	m.SetDepth(0, isa.ServiceID{})
	if len(recs) != 1 {
		t.Fatalf("switch to user did not close interval")
	}
	e.Ops(10)
	// Dispatch a kernel-blocked context: interval reopens typed by its service.
	m.SetDepth(1, isa.Sys(isa.SysPoll))
	e.Ops(30)
	e.Iret()
	m.KExit()
	if len(recs) != 2 {
		t.Fatalf("reopened interval did not close, have %d", len(recs))
	}
	if recs[1].Service != isa.Sys(isa.SysPoll) {
		t.Errorf("reopened interval typed %v", recs[1].Service)
	}
}

// fixedSink predicts constant values and records calls.
type fixedSink struct {
	detailed bool
	pred     Prediction
	starts   int
	ends     int
	measured int
	lastSig  Signature
}

func (s *fixedSink) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	s.starts++
	return s.detailed, 1
}

func (s *fixedSink) OnServiceEnd(svc isa.ServiceID, sig Signature, meas *Measurement) *Prediction {
	s.ends++
	s.lastSig = sig
	if meas != nil {
		s.measured++
		return nil
	}
	p := s.pred
	return &p
}

func TestAcceleratedEmulation(t *testing.T) {
	m := newTestMachine(Accelerated)
	sink := &fixedSink{detailed: false, pred: Prediction{Cycles: 5000, L2Misses: 10}}
	m.SetSink(sink)
	e := m.Emitter()

	e.Ops(10)
	before := m.Now()
	m.KEnter(isa.Sys(isa.SysRead))
	e.Ops(1000) // emulated: no timing
	e.Iret()
	m.KExit()
	after := m.Now()

	if sink.starts != 1 || sink.ends != 1 || sink.measured != 0 {
		t.Fatalf("sink calls: %+v", sink)
	}
	if d := after - before; d < 4900 || d > 5200 {
		t.Errorf("predicted advance = %d, want ~5000", d)
	}
	st := m.Stats()
	if st.Emulated != 1 || st.EmuInsts != 1001 {
		t.Errorf("emulation stats: %+v", st)
	}
	if st.Coverage() != 1 {
		t.Errorf("coverage = %v", st.Coverage())
	}
	if sink.lastSig.Insts != 1001 {
		t.Errorf("signature insts = %d", sink.lastSig.Insts)
	}
}

// emulateAllSink fast-forwards every OS and application interval and
// predicts the same record for each.
type emulateAllSink struct{ pred Prediction }

func (s *emulateAllSink) OnServiceStart(isa.ServiceID) (bool, float64) { return false, 1 }
func (s *emulateAllSink) OnServiceEnd(isa.ServiceID, Signature, *Measurement) *Prediction {
	return &s.pred
}
func (s *emulateAllSink) OnAppStart() (bool, float64)                  { return false, 1 }
func (s *emulateAllSink) OnAppEnd(Signature, *Measurement) *Prediction { return &s.pred }

// TestPredictionAccumulatesEveryField checks that Stats.Pred sums every field
// of every emulated interval's prediction, OS and application alike.
func TestPredictionAccumulatesEveryField(t *testing.T) {
	m := newTestMachine(Accelerated)
	sink := &emulateAllSink{pred: Prediction{Cycles: 5000, L1IMisses: 1, L1DMisses: 2, L2Misses: 3,
		L1IAccesses: 4, L1DAccesses: 5, L2Accesses: 6, L2Writebacks: 7}}
	m.SetSink(sink)
	m.SetAppSink(sink)
	e := m.Emitter()
	for i := 0; i < 3; i++ {
		e.Ops(100) // an emulated app interval
		m.KEnter(isa.Sys(isa.SysRead))
		e.Ops(100) // an emulated OS interval
		m.KExit()
	}
	m.FinishApp() // no user instruction since: no app interval is open

	st := m.Stats()
	ai, ae, _ := m.AppIntervalStats()
	if st.Emulated != 3 || ai != 3 || ae != 3 {
		t.Fatalf("emulated %d OS, %d/%d app intervals, want 3 and 3/3", st.Emulated, ae, ai)
	}
	p := sink.pred
	want := Prediction{6 * p.Cycles, 6 * p.L1IMisses, 6 * p.L1DMisses, 6 * p.L2Misses,
		6 * p.L1IAccesses, 6 * p.L1DAccesses, 6 * p.L2Accesses, 6 * p.L2Writebacks}
	if st.Pred != want {
		t.Errorf("Stats.Pred = %+v, want %+v", st.Pred, want)
	}
}

// TestSignatureMixCounting checks the emulation-observable mix counters.
func TestSignatureMixCounting(t *testing.T) {
	m := newTestMachine(Accelerated)
	sink := &fixedSink{detailed: false, pred: Prediction{Cycles: 100}}
	m.SetSink(sink)
	e := m.Emitter()
	m.KEnter(isa.Sys(isa.SysWrite))
	e.Ops(10)
	e.Load(0x1000, 8, 0)
	e.Load(0x2000, 8, 0)
	e.Store(0x3000, 8)
	e.Branch(false, 0)
	e.Iret()
	m.KExit()
	sig := sink.lastSig
	if sig.Loads != 2 || sig.Stores != 1 || sig.Branches != 1 {
		t.Fatalf("mix = %+v", sig)
	}
	if sig.Insts != 15 {
		t.Fatalf("insts = %d", sig.Insts)
	}
}

func TestAcceleratedDetailedLearning(t *testing.T) {
	m := newTestMachine(Accelerated)
	sink := &fixedSink{detailed: true}
	m.SetSink(sink)
	e := m.Emitter()
	m.KEnter(isa.Sys(isa.SysRead))
	e.Ops(100)
	e.Iret()
	m.KExit()
	if sink.measured != 1 {
		t.Fatalf("learning interval not measured")
	}
	if m.Stats().Emulated != 0 {
		t.Error("detailed interval counted as emulated")
	}
}

func TestAppOnlySkipsKernelTiming(t *testing.T) {
	m := newTestMachine(AppOnly)
	e := m.Emitter()
	e.Ops(100)
	user := m.Now()
	m.KEnter(isa.Sys(isa.SysWrite))
	e.Ops(100000)
	m.KExit()
	if m.Now() != user {
		t.Errorf("kernel instructions advanced the clock in App-Only mode")
	}
	st := m.Stats()
	if st.OSInsts != 100000 {
		t.Errorf("kernel instructions not counted functionally: %d", st.OSInsts)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	m := newTestMachine(FullSystem)
	var fired []int
	op := m.RegisterOp(func(a, _ uint64) { fired = append(fired, int(a)) })
	m.ScheduleOp(500, op, 2, 0)
	m.ScheduleOp(100, op, 1, 0)
	m.ScheduleOp(900, op, 3, 0)
	e := m.Emitter()
	for m.Now() < 2000 {
		e.Ops(64)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("events fired %v", fired)
	}
}

func TestAdvanceIdle(t *testing.T) {
	m := newTestMachine(FullSystem)
	hit := false
	m.ScheduleOp(10000, m.RegisterOp(func(_, _ uint64) { hit = true }), 0, 0)
	if !m.AdvanceIdle() {
		t.Fatal("AdvanceIdle found no event")
	}
	if !hit || m.Now() < 10000 {
		t.Fatalf("idle advance: hit=%v now=%d", hit, m.Now())
	}
	if m.AdvanceIdle() {
		t.Fatal("AdvanceIdle with empty queue should report false")
	}
}

func TestWarmBaseline(t *testing.T) {
	m := newTestMachine(FullSystem)
	m.DeclareWarmup()
	armed := false
	m.SetWarmCallback(func() { armed = true })
	e := m.Emitter()
	e.Ops(5000)
	m.Warm()
	if !armed {
		t.Fatal("warm callback not invoked")
	}
	warmInsts := m.Stats().Insts
	if warmInsts != 0 {
		t.Fatalf("baseline not reset: %d insts", warmInsts)
	}
	e.Ops(123)
	if got := m.Stats().Insts; got != 123 {
		t.Fatalf("post-warm insts = %d", got)
	}
	m.Warm() // idempotent
	if got := m.Stats().Insts; got != 123 {
		t.Fatalf("second Warm reset the baseline")
	}
}

func TestCursorCallRet(t *testing.T) {
	m := newTestMachine(FullSystem)
	e := m.Emitter()
	start := m.CursorState().PC
	e.Call(0x5000)
	if m.CursorState().PC != 0x5000 {
		t.Fatalf("call did not move PC")
	}
	e.Ops(3)
	e.Ret()
	// The return address is the instruction after the call.
	if got := m.CursorState().PC; got != start+4 {
		t.Fatalf("ret PC = %#x, want %#x", got, start+4)
	}
}

func TestLoopReplaysPCs(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	e := m.Emitter()
	e.Loop(100, func(i int) { e.Ops(4) })
	st := m.Stats()
	// 100 iterations x 5 insts over the same line(s): at most a few I-lines.
	if st.Mem.L1I.Misses > 4 {
		t.Errorf("loop body did not replay PCs: %d I-misses", st.Mem.L1I.Misses)
	}
}

func TestModeString(t *testing.T) {
	if FullSystem.String() != "App+OS" || AppOnly.String() != "App Only" ||
		Accelerated.String() != "App+OS Pred" {
		t.Error("mode names diverge from the paper's labels")
	}
}

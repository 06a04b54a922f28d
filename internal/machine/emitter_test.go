package machine

import (
	"testing"

	"fssim/internal/isa"
)

func TestEmitterOpcodeCounts(t *testing.T) {
	m := New(DefaultConfig())
	var ops []isa.Opcode
	// Count via the interval signature: open a pseudo-interval.
	m.KEnter(isa.Sys(isa.SysWrite))
	e := m.Emitter()
	e.Ops(3)
	e.Chain(2)
	e.Mix(8)
	e.FOps(4)
	e.Div()
	e.FDiv()
	e.Load(0x100, 8, 0)
	e.Store(0x200, 8)
	e.Branch(true, 0x1000)
	want := uint64(3 + 2 + 8 + 4 + 1 + 1 + 1 + 1 + 1)
	if m.os.sig.Insts != want {
		t.Fatalf("emitted %d instructions, want %d", m.os.sig.Insts, want)
	}
	if m.os.sig.Loads != 1 || m.os.sig.Stores != 1 || m.os.sig.Branches != 1 {
		t.Fatalf("mix %+v", m.os.sig)
	}
	e.Iret()
	m.KExit()
	_ = ops
}

func TestCopyLinesTouchesBothRanges(t *testing.T) {
	m := New(DefaultConfig())
	e := m.Emitter()
	e.CopyLines(0x20_0000, 0x30_0000, 16)
	st := m.Stats()
	// 16 loads + 16 stores = 32 line touches; both ranges cold.
	if st.Mem.L1D.Misses != 32 {
		t.Fatalf("copy misses = %d, want 32", st.Mem.L1D.Misses)
	}
}

func TestScanAndWriteLines(t *testing.T) {
	m := New(DefaultConfig())
	e := m.Emitter()
	e.ScanLines(0x40_0000, 8, 64)
	e.WriteLines(0x50_0000, 8, 64)
	st := m.Stats()
	if st.Mem.L1D.Misses != 16 {
		t.Fatalf("misses = %d, want 16", st.Mem.L1D.Misses)
	}
	if st.Insts < 8*3*2 {
		t.Fatalf("too few instructions emitted: %d", st.Insts)
	}
}

func TestChaseListSerializes(t *testing.T) {
	// Pointer chasing over cold lines must cost roughly a full memory
	// latency per node (dependent loads), unlike an independent scan.
	mScan := New(DefaultConfig())
	mScan.Emitter().ScanLines(0x60_0000, 32, 64)
	mChase := New(DefaultConfig())
	nodes := make([]uint64, 32)
	for i := range nodes {
		nodes[i] = 0x70_0000 + uint64(i)*64
	}
	mChase.Emitter().ChaseList(nodes)
	if mChase.Now() < mScan.Now()*2 {
		t.Fatalf("chase (%d cycles) should be much slower than scan (%d)",
			mChase.Now(), mScan.Now())
	}
}

func TestCodeMapAllocations(t *testing.T) {
	cm := NewCodeMap(0x1000)
	a := cm.Fn(100)
	b := cm.Fn(100)
	if a != 0x1000 {
		t.Fatalf("first fn at %#x", a)
	}
	if b <= a || b%64 != 0 {
		t.Fatalf("second fn at %#x", b)
	}
}

func TestSchedulePastEventFiresImmediately(t *testing.T) {
	m := New(DefaultConfig())
	e := m.Emitter()
	e.Ops(1000)
	fired := false
	m.ScheduleOp(1, m.RegisterOp(func(_, _ uint64) { fired = true }), 0, 0) // already past
	e.Ops(8)
	if !fired {
		t.Fatal("past-due event did not fire at the next boundary")
	}
}

func TestPendingEvents(t *testing.T) {
	m := New(DefaultConfig())
	op := m.RegisterOp(func(_, _ uint64) {})
	m.ScheduleOp(1_000_000, op, 0, 0)
	m.ScheduleOp(2_000_000, op, 0, 0)
	if m.PendingEvents() != 2 {
		t.Fatalf("pending = %d", m.PendingEvents())
	}
}

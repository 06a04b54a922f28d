// Package machine ties the simulated system together: it owns the processor
// timing core and memory hierarchy, the device event queue, the user/kernel
// mode bookkeeping that delimits OS service intervals (paper §3), and the
// dynamic switch between detailed simulation and fast emulation that the
// acceleration scheme drives (paper §4).
//
// The machine is execution-driven: kernel and guest code emit dynamic
// instructions through an Emitter; the machine attributes them to the
// application or to the current OS service interval, feeds them to the active
// backend, and delivers device interrupts at instruction boundaries.
package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"fssim/internal/cache"
	"fssim/internal/cpu"
	"fssim/internal/isa"
	"fssim/internal/memsim"
	"fssim/internal/memsys"
	"fssim/internal/trace"
)

// SimMode selects what the simulation covers.
type SimMode int

const (
	// FullSystem simulates application and OS in the detailed timing model.
	FullSystem SimMode = iota
	// AppOnly simulates only application instructions; OS services execute
	// functionally but cost nothing (the paper's "App Only" baseline).
	AppOnly
	// Accelerated runs the paper's scheme: application code is always
	// detailed; OS services are detailed during learning periods and
	// fast-forwarded in emulation mode during prediction periods, with the
	// attached IntervalSink deciding and predicting.
	Accelerated
)

func (m SimMode) String() string {
	switch m {
	case FullSystem:
		return "App+OS"
	case AppOnly:
		return "App Only"
	default:
		return "App+OS Pred"
	}
}

// ParseMode resolves a mode name, case-insensitively: "" or "full" (also
// "fullsystem", "full-system", "app+os"), "app" (also "apponly", "app-only",
// "app only") and "accel" (also "accelerated", "pred", "app+os pred").
func ParseMode(s string) (SimMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "full", "fullsystem", "full-system", "app+os":
		return FullSystem, nil
	case "app", "apponly", "app-only", "app only":
		return AppOnly, nil
	case "accel", "accelerated", "pred", "app+os pred":
		return Accelerated, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want full, app or accel)", s)
}

// CoreKind selects the processor timing model (Table 1's mode axis).
type CoreKind int

const (
	CoreOOO CoreKind = iota
	CoreInOrder
)

// Config assembles a machine.
type Config struct {
	Mode       SimMode
	Core       CoreKind
	WithCaches bool // false = ideal memory (the "nocache" Table 1 modes)
	CPU        cpu.Config
	Mem        memsys.Config
	Seed       int64

	// Ablation switches for the acceleration scheme's side-effect models
	// (both default to enabled; see DESIGN.md §7).
	NoPollution    bool // disable cache pollution injection (paper §4.5)
	NoBusInjection bool // disable predicted bus-occupancy injection
}

// DefaultConfig returns the paper's §5.1 platform in full-system mode.
func DefaultConfig() Config {
	return Config{
		Mode:       FullSystem,
		Core:       CoreOOO,
		WithCaches: true,
		CPU:        cpu.DefaultConfig(),
		Mem:        memsys.DefaultConfig(),
		Seed:       1,
	}
}

// Signature carries the observables of one OS service interval that are
// obtainable in fast emulation mode — without any timing model. The paper
// builds its signature from Insts alone and names the instruction mix as
// future work (§3); the Loads/Stores/Branches counters enable that extended
// signature (core.Params.MixSignature).
type Signature struct {
	Insts    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
}

// Measurement captures the performance characteristics of one OS service
// interval obtained by detailed simulation — the quantities the PLT records
// (paper §4.3): instruction count, cycles, and per-level cache activity.
type Measurement struct {
	Insts  uint64
	Cycles uint64
	L1I    cache.Stats
	L1D    cache.Stats
	L2     cache.Stats
}

// IPC returns instructions per cycle for the interval.
func (ms Measurement) IPC() float64 {
	if ms.Cycles == 0 {
		return 0
	}
	return float64(ms.Insts) / float64(ms.Cycles)
}

// Prediction is what the sink returns for an emulated interval.
type Prediction struct {
	Cycles                   uint64
	L1IMisses, L1DMisses     uint64
	L2Misses                 uint64
	L1IAccesses, L1DAccesses uint64
	L2Accesses               uint64
	L2Writebacks             uint64
}

// IntervalSink is the acceleration engine's hook into the machine.
// OnServiceStart is called at each user→kernel transition and decides the
// simulation mode for the interval; for emulated intervals it also supplies
// the service's estimated CPI, which the machine uses to advance a virtual
// clock while fast-forwarding so that device events scheduled inside the
// interval carry approximately correct timestamps. OnServiceEnd is called at
// the matching kernel→user transition with either the detailed measurement
// (learning) or the instruction-count signature (prediction), and must
// return a Prediction in the latter case.
//
// Memory contract: the *Measurement passed to OnServiceEnd points into a
// per-machine scratch buffer that is rewritten at the next detailed
// interval, and the returned *Prediction is consumed (copied field-wise)
// before OnServiceEnd is called again — both sides may reuse their records
// and neither may retain the other's pointer past the call.
type IntervalSink interface {
	OnServiceStart(svc isa.ServiceID) (detailed bool, estCPI float64)
	OnServiceEnd(svc isa.ServiceID, sig Signature, meas *Measurement) *Prediction
}

// AppSink is the stratified-sampling subsystem's hook into the machine — the
// application-side twin of IntervalSink. An application interval is one
// user-mode execution stretch (kernel depth 0) between OS service intervals;
// it shares the machine's one interval path with them, so it is opened,
// counted, fast-forwarded under the virtual clock, and predicted or measured
// exactly as an OS service interval is. OnAppStart is called when such a
// stretch begins and decides whether it is simulated in detail or
// fast-forwarded; for fast-forwarded intervals it also supplies the estimated
// CPI driving the virtual clock. OnAppEnd is called when the stretch ends (an
// OS service opens, the CPU idles, or the run finishes): with the detailed
// measurement when the interval was simulated, or with meas == nil when it was
// fast-forwarded — in which case it must return the extrapolated Prediction
// (nil falls back to IPC 1).
//
// Memory contract: identical to IntervalSink — the *Measurement points into
// the per-machine scratch buffer and the returned *Prediction is consumed
// before OnAppEnd is called again; neither side may retain the other's
// pointer past the call, and implementations must not allocate per interval.
type AppSink interface {
	OnAppStart() (detailed bool, estCPI float64)
	OnAppEnd(sig Signature, meas *Measurement) *Prediction
}

// IntervalRecord is the characterization view of one completed interval,
// delivered to an optional observer (Figs 3–6 are built from these). The
// Predicted and Meas pointers reference per-machine/per-learner scratch
// records valid only for the duration of the observer call; observers that
// need the data later must copy the values out.
type IntervalRecord struct {
	Service   isa.ServiceID
	Insts     uint64
	Sig       Signature
	Cycles    uint64
	Emulated  bool
	Predicted *Prediction // non-nil when Emulated
	Meas      *Measurement
}

// interval is the state of one interval kind — the OS service interval or
// the application interval. Both kinds open, count, close and are predicted
// through the same Machine methods; what differs per kind is the sink they
// consult, and that only OS intervals reach the observer and fire due events
// at close.
type interval struct {
	svc       isa.ServiceID // the service (isa.App() for app intervals)
	cause     trace.Cause
	sig       Signature // emulation-observable counters of the open interval
	emulating bool      // the interval is fast-forwarded

	startInsts  uint64
	startCycles uint64
	startMem    memsys.Snapshot
	emuInsts    uint64 // the interval's fast-forwarded instructions

	opened   uint64 // intervals of this kind opened
	emulated uint64 // of which fast-forwarded
	emuTotal uint64 // total instructions fast-forwarded in this kind
}

// Machine is one simulated system.
type Machine struct {
	cfg  Config
	core cpu.Core
	mem  *memsys.Hierarchy // nil when WithCaches is false
	rng  *rand.Rand
	Lay  *memsim.Layout

	events   eventQueue
	eventSeq uint64              // per-machine tie-break counter for simultaneous events
	next     uint64              // cycle of earliest pending event (cache of heap head)
	ops      []func(a, b uint64) // event dispatch table (RegisterOp / ScheduleOp)

	// inst is the emitter's scratch instruction: Emitter.emit stages each
	// dynamic instruction here and passes its address to Exec, so the
	// instruction never escapes to the heap (the cpu.Core interface call
	// would otherwise force one allocation per emitted instruction — the
	// dominant allocation of the entire simulator before this scratch).
	// Exec and the timing cores consume the instruction synchronously and
	// never retain the pointer, so reuse across (possibly reentrant)
	// emissions is safe.
	inst isa.Inst

	// batch is where Emitter.run stages a shaped helper's instructions for
	// the timing core: a fixed array inside the machine, so a batch costs no
	// allocation.
	batch [64]isa.Inst

	// measScratch and predScratch are the per-machine interval buffers:
	// close publishes each detailed measurement and each degenerate
	// fallback prediction through these instead of allocating per interval.
	// IntervalSink and observer callbacks receive pointers into them and
	// must not retain them past the call (both contracts are documented on
	// the interfaces); everything is fully rewritten before the next use.
	measScratch Measurement
	predScratch Prediction

	depth      int // current context's kernel nesting depth
	delivering bool

	sink     IntervalSink
	appSink  AppSink
	observer func(IntervalRecord)
	rec      *trace.Recorder     // nil unless tracing is enabled for the run
	irq      func(vector uint16) // kernel's interrupt entry

	// The two interval kinds, and the one that is open (nil between
	// intervals). os is the OS service interval; app is the application
	// interval (stratified sampling), which opens lazily at the first
	// user-mode instruction after the previous OS interval closed — never
	// eagerly — so idle stretches with no user work produce no
	// zero-instruction intervals. The two never overlap: an opening OS
	// interval closes the app interval first.
	os, app interval
	cur     *interval

	// Virtual-clock state for emulated intervals: estimated cycles per
	// instruction and the fractional accumulator applied in chunks.
	virtCPI  float64
	virtFrac float64

	// Per-service phantom working-set bases for pollution injection: each
	// OS service's fast-forwarded cache footprint is replayed at a stable
	// address range, so repeated invocations refresh rather than re-displace.
	phantoms    map[isa.ServiceID]uint64
	phantomNext uint64

	// Measurement warm-up (paper §5.2: the first 300 HTTP requests / 4096
	// socket writes are skipped before measuring). A workload that supports
	// warm-up declares it at setup and calls Warm() at the skip boundary;
	// the machine then snapshots a statistics baseline so Stats() reports
	// the measured period only.
	warmDeclared bool
	warmed       bool
	warmCb       func()
	base         *Stats

	cursor Cursor

	// cancel, once set, asynchronously aborts the run: Exec (and the kernel
	// scheduler's thread handoffs) panic with *AbortError so every guest
	// goroutine unwinds cooperatively instead of leaking. Written from watcher
	// goroutines, read from the simulation goroutines — hence atomic.
	cancel atomic.Pointer[cancelReason]

	// Aggregate statistics.
	totalInsts uint64
	userInsts  uint64
	osInsts    uint64
	predCycles uint64 // total cycles added by prediction
	pred       Prediction
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	m := &Machine{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		Lay: memsim.NewLayout(),
	}
	if cfg.WithCaches {
		m.mem = memsys.New(cfg.Mem)
	}
	switch cfg.Core {
	case CoreInOrder:
		m.core = cpu.NewInOrder(cfg.CPU, m.mem)
	default:
		m.core = cpu.NewOOO(cfg.CPU, m.mem)
	}
	m.next = ^uint64(0)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mode returns the simulation mode.
func (m *Machine) Mode() SimMode { return m.cfg.Mode }

// RNG returns the machine's deterministic random source.
func (m *Machine) RNG() *rand.Rand { return m.rng }

// Mem returns the memory hierarchy (nil in nocache configurations).
func (m *Machine) Mem() *memsys.Hierarchy { return m.mem }

// Core returns the timing core.
func (m *Machine) Core() cpu.Core { return m.core }

// SetSink attaches the acceleration engine (used with Mode == Accelerated).
func (m *Machine) SetSink(s IntervalSink) { m.sink = s }

// SetAppSink attaches the application-interval sampling sink. Unlike the OS
// sink it is honored in every simulation mode: sampling the application side
// is orthogonal to how the OS side is simulated.
func (m *Machine) SetAppSink(s AppSink) { m.appSink = s }

// SetObserver attaches a characterization observer receiving every completed
// OS service interval.
func (m *Machine) SetObserver(f func(IntervalRecord)) { m.observer = f }

// SetIRQHandler registers the kernel's interrupt entry point.
func (m *Machine) SetIRQHandler(f func(vector uint16)) { m.irq = f }

// SetTrace attaches an interval recorder (nil disables tracing; every
// instrumentation site is a guarded no-op in that case). The machine installs
// itself as the recorder's clock so instants carry simulated cycles.
func (m *Machine) SetTrace(r *trace.Recorder) {
	m.rec = r
	r.SetClock(m.Now)
}

// Trace returns the attached recorder (nil when tracing is off; the nil
// recorder's methods — including Metrics() — are themselves no-ops).
func (m *Machine) Trace() *trace.Recorder { return m.rec }

// Now returns the global cycle counter (committed time plus predicted
// fast-forward time already applied).
func (m *Machine) Now() uint64 { return m.core.Now() }

// InKernel reports whether the machine is in privileged mode.
func (m *Machine) InKernel() bool { return m.depth > 0 }

// Depth returns the current kernel nesting depth.
func (m *Machine) Depth() int { return m.depth }

// cancelReason wraps the cancellation cause behind one pointer so the hot
// path needs a single atomic load to test for it.
type cancelReason struct{ err error }

// ErrCanceled is the default cancellation cause.
var ErrCanceled = errors.New("machine: run canceled")

// AbortError is the panic value a canceled machine raises from Exec (and the
// kernel scheduler from its handoff points): the kernel's thread wrappers
// recognize it and unwind their goroutines cleanly instead of treating it as
// a guest crash.
type AbortError struct{ Cause error }

func (e *AbortError) Error() string { return "machine: run aborted: " + e.Cause.Error() }
func (e *AbortError) Unwrap() error { return e.Cause }

// Cancel requests an asynchronous abort of the run with the given cause
// (ErrCanceled when nil). Safe to call from any goroutine; the first cause
// wins. The simulation goroutines observe it at the next instruction-boundary
// check and unwind via *AbortError panics.
func (m *Machine) Cancel(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	m.cancel.CompareAndSwap(nil, &cancelReason{err: cause})
}

// Canceled returns the cancellation cause, or nil while the run is live.
func (m *Machine) Canceled() error {
	if r := m.cancel.Load(); r != nil {
		return r.err
	}
	return nil
}

// AbortIfCanceled panics with *AbortError if the machine was canceled. The
// kernel scheduler calls it at thread-handoff points so parked threads die
// promptly during teardown.
func (m *Machine) AbortIfCanceled() {
	if r := m.cancel.Load(); r != nil {
		panic(&AbortError{Cause: r.err})
	}
}

// execStaged stamps the staged scratch instruction with the cursor PC,
// advances the cursor, and executes it — the deliberately out-of-line half
// of Emitter.emit. The noinline keeps execStaged from folding back into
// emit and pushing it over the inlining budget: emit must inline into every
// helper so each instruction literal is built directly in the scratch slot
// (no stack intermediate, no argument copy — the copies were ~20% of a
// detailed run's CPU time).
//
//go:noinline
func (m *Machine) execStaged() {
	m.inst.PC = m.cursor.PC
	m.cursor.PC += 4
	m.Exec(&m.inst)
}

// Exec runs one dynamic instruction through the active backend. Kernel and
// guest code normally call this through an Emitter, which manages the PC
// cursor.
func (m *Machine) Exec(in *isa.Inst) {
	// Cancellation is polled here on every 256th instruction, by detailed
	// batches at the same instructions, and by the bulk fast-forward path
	// once per span (Emitter.run), so a canceled run aborts within one span
	// — at most 512/virtCPI fast-forwarded instructions — plus 256 detailed
	// instructions.
	if m.totalInsts&255 == 0 {
		m.AbortIfCanceled()
	}
	m.totalInsts++
	owner := cache.OwnerApp
	if m.depth > 0 {
		m.osInsts++
		owner = cache.OwnerOS
	} else {
		m.userInsts++
		if m.appSink != nil && m.cur == nil {
			m.openAppInterval()
		}
	}
	iv := m.cur
	if iv != nil {
		iv.sig.Insts++
		switch in.Op {
		case isa.LOAD:
			iv.sig.Loads++
		case isa.STORE:
			iv.sig.Stores++
		case isa.BRANCH:
			iv.sig.Branches++
		}
	}
	var now uint64
	if iv != nil && iv.emulating {
		iv.emuInsts++
		iv.emuTotal++
		// Advance the virtual clock so events scheduled inside the
		// fast-forwarded interval see approximately correct time. The
		// estimate is deliberately conservative (90% of the sink's CPI
		// estimate): the prediction tops up the remainder at interval
		// close, whereas an overshoot could not be taken back.
		m.advanceVirtual()
		now = m.core.Now()
	} else if m.cfg.Mode == AppOnly && m.depth > 0 {
		// App-Only simulation runs kernel work functionally, at no cost.
		now = m.core.Now()
	} else {
		now = m.core.Exec(in, owner)
	}
	if now >= m.next && !m.delivering {
		m.pollEvents()
	}
}

// advanceVirtual applies one instruction's worth of estimated CPI to the
// virtual clock, flushing whole-cycle chunks into the core so events
// scheduled inside a fast-forwarded interval see approximately correct time.
func (m *Machine) advanceVirtual() {
	m.virtFrac += m.virtCPI
	if m.virtFrac >= 512 {
		chunk := uint64(m.virtFrac)
		m.virtFrac -= float64(chunk)
		m.core.SkipTo(m.core.Now() + chunk)
	}
}

// ffState returns the open interval when it is fast-forwarded — the next
// instruction would then be applied by Exec with no effect beyond counting
// into that interval and the virtual clock — and nil otherwise.
// Emitter.run applies instructions in bulk only while it is non-nil.
func (m *Machine) ffState() *interval {
	if iv := m.cur; iv != nil && iv.emulating {
		return iv
	}
	return nil
}

// ffSpan returns how many of the next n fast-forwarded instructions can be
// applied in bulk, taking their virtual-clock adds. The span ends before the
// first instruction at which Exec would do more than count: the one whose
// add reaches 512 (a clock flush, after which events may come due), or any
// instruction while an event is already due. The adds still happen one at a
// time, so virtFrac rounds exactly as it does per instruction.
func (m *Machine) ffSpan(n int) int {
	if !m.delivering && m.core.Now() >= m.next {
		return 0
	}
	f, c := m.virtFrac, m.virtCPI
	k := 0
	for k < n && f+c < 512 {
		f += c
		k++
	}
	m.virtFrac = f
	return k
}

// count adds instructions [x, y) of a stream shaped sh to the counters
// Exec bumps for each: the machine's instruction totals and the open
// interval's signature.
func (m *Machine) count(sh *ffShape, x, y int) {
	k := uint64(y - x)
	m.totalInsts += k
	if m.depth > 0 {
		m.osInsts += k
	} else {
		m.userInsts += k
	}
	if iv := m.cur; iv != nil {
		iv.sig.Insts += k
		iv.sig.Loads += sh.slots(sh.load, x, y)
		iv.sig.Stores += sh.slots(sh.store, x, y)
		iv.sig.Branches += sh.slots(sh.branch, x, y)
	}
}

// KEnter records entry into kernel mode for service svc. The first-level
// entry (depth 0→1) opens an OS service interval; nested entries (interrupts
// during a service, services invoked by services) fold into the initial one,
// per the paper's interval definition.
func (m *Machine) KEnter(svc isa.ServiceID) {
	m.depth++
	if m.depth == 1 && m.cur != &m.os {
		m.openInterval(svc, trace.CauseOf(svc))
	}
}

// KExit records a return toward user mode. The last exit (depth 1→0) closes
// the current interval.
func (m *Machine) KExit() {
	if m.depth == 0 {
		panic("machine: KExit without matching KEnter")
	}
	m.depth--
	if m.depth == 0 && m.cur == &m.os {
		m.close()
	}
}

// SetDepth reconciles the machine's mode with a newly scheduled context's
// saved kernel depth. Context switches normally occur inside the kernel, so
// both the old and new depths are positive and the open interval continues
// across the switch (the paper's "extension of the initial OS service"). Two
// edge transitions are handled explicitly: dispatching a user-mode context
// while the kernel interval is open closes it, and dispatching a
// kernel-blocked context from the idle loop re-enters privileged mode,
// opening a fresh interval typed by the service the context was executing.
func (m *Machine) SetDepth(d int, svc isa.ServiceID) {
	if m.depth > 0 && d == 0 && m.cur == &m.os {
		m.close()
	}
	if m.depth == 0 && d > 0 && m.cur != &m.os {
		m.openInterval(svc, trace.CauseResume)
	}
	m.depth = d
}

// openInterval opens an OS service interval. It ends the open application
// interval first: the two never overlap, and the app prediction's SkipTo
// lands before the OS interval snapshots its start cycle.
func (m *Machine) openInterval(svc isa.ServiceID, cause trace.Cause) {
	m.FinishApp()
	m.open(&m.os, svc, cause, m.totalInsts)
	if m.cfg.Mode == Accelerated && m.sink != nil {
		m.decide(m.sink.OnServiceStart(svc))
	}
}

// openAppInterval opens an application interval at the current user-mode
// instruction. Exec has already counted that instruction (totalInsts++
// happens before the lazy open), and the interval owns it — hence the -1.
func (m *Machine) openAppInterval() {
	m.open(&m.app, isa.App(), trace.CauseApp, m.totalInsts-1)
	m.decide(m.appSink.OnAppStart())
}

// open makes iv the open interval, starting at instruction count start and
// the current cycle and cache statistics. It runs in detail until decide
// says otherwise.
func (m *Machine) open(iv *interval, svc isa.ServiceID, cause trace.Cause, start uint64) {
	m.cur = iv
	iv.svc, iv.cause = svc, cause
	iv.opened++
	iv.sig = Signature{}
	iv.emulating = false
	iv.startInsts = start
	iv.startCycles = m.core.Now()
	if m.mem != nil {
		iv.startMem = m.mem.Stats()
	}
	iv.emuInsts = 0
	m.virtFrac = 0
}

// decide applies a sink's decision for the interval just opened: a
// fast-forwarded interval paces the virtual clock at 90% of the sink's CPI
// estimate (1 when it gives none).
func (m *Machine) decide(detailed bool, estCPI float64) {
	if detailed {
		return
	}
	m.cur.emulating = true
	m.cur.emulated++
	if estCPI <= 0 {
		estCPI = 1
	}
	m.virtCPI = estCPI * 0.9
}

// close ends the open interval. A fast-forwarded interval takes its sink's
// prediction (IPC 1 without one): the remainder of the predicted duration is
// skipped, the predicted cache activity accumulates into Stats.Pred, and the
// interval's cache pollution and bus occupancy are replayed. A detailed
// interval is measured and the measurement handed to its sink. OS intervals
// then reach the observer and fire the events that came due while they were
// fast-forwarded. App intervals leave those to the next Exec, within a few
// instructions: their common closer is openInterval (an OS service is about
// to start), and delivering an interrupt from under a half-opened interval
// would nest mode switches incorrectly.
func (m *Machine) close() {
	iv := m.cur
	m.cur = nil
	rec := IntervalRecord{Service: iv.svc, Emulated: iv.emulating, Sig: iv.sig}
	if iv.emulating {
		rec.Insts = iv.emuInsts
		pred := m.end(iv, nil)
		if pred == nil {
			// Degenerate fallback (IPC 1), staged in the machine's scratch
			// so the no-sink path allocates nothing per interval.
			m.predScratch = Prediction{Cycles: rec.Insts}
			pred = &m.predScratch
		}
		// The prediction includes any I/O or idle wait the interval
		// experienced. Simulated time may already have advanced during the
		// fast-forward (device waits execute at real event times even in
		// emulation), so only the remainder of the predicted duration is
		// applied.
		elapsed := m.core.Now() - iv.startCycles
		add := uint64(0)
		if pred.Cycles > elapsed {
			add = pred.Cycles - elapsed
		}
		m.core.SkipTo(m.core.Now() + add)
		m.predCycles += add
		m.pred.Cycles += pred.Cycles
		m.pred.L1IMisses += pred.L1IMisses
		m.pred.L1DMisses += pred.L1DMisses
		m.pred.L2Misses += pred.L2Misses
		m.pred.L1IAccesses += pred.L1IAccesses
		m.pred.L1DAccesses += pred.L1DAccesses
		m.pred.L2Accesses += pred.L2Accesses
		m.pred.L2Writebacks += pred.L2Writebacks
		if m.mem != nil {
			if !m.cfg.NoPollution {
				m.mem.TouchPhantoms(m.phantomBase(iv.svc),
					int(pred.L1IMisses), int(pred.L1DMisses), int(pred.L2Misses))
			}
			if !m.cfg.NoBusInjection {
				// The interval's DRAM traffic also occupied the memory bus;
				// replay that occupancy so subsequent detailed accesses see
				// the contention the skipped interval would have caused.
				m.mem.InjectBusTraffic(int(pred.L2Misses+pred.L2Writebacks), iv.startCycles)
			}
		}
		rec.Cycles = pred.Cycles
		rec.Predicted = pred
	} else {
		// The measurement lives in the machine's scratch buffer: sink and
		// observer consume it synchronously, so no per-interval allocation.
		m.measScratch = Measurement{
			Insts:  m.totalInsts - iv.startInsts,
			Cycles: m.core.Now() - iv.startCycles,
		}
		if m.mem != nil {
			d := m.mem.Stats().Sub(iv.startMem)
			m.measScratch.L1I, m.measScratch.L1D, m.measScratch.L2 = d.L1I, d.L1D, d.L2
		}
		rec.Insts = m.measScratch.Insts
		rec.Cycles = m.measScratch.Cycles
		rec.Meas = &m.measScratch
		m.end(iv, &m.measScratch)
	}
	if m.rec != nil {
		// The sink's end call (above) may have staged an annotation via
		// Annotate; Interval consumes it here. For emulated intervals the
		// span duration is the predicted cycles — the machine advanced Now
		// to at most start+pred.Cycles, so spans never overlap.
		m.rec.Interval(iv.svc, iv.cause, iv.startCycles, rec.Cycles, rec.Insts, rec.Emulated)
	}
	if iv == &m.os && m.observer != nil {
		m.observer(rec)
	}
	if PoisonPools {
		// Scrub the interval scratch so a consumer that wrongly retained a
		// pointer past the callback reads loud garbage in the poison suites.
		m.measScratch = Measurement{Insts: PoisonPattern, Cycles: PoisonPattern}
		m.predScratch = Prediction{Cycles: PoisonPattern, L2Misses: PoisonPattern}
	}
	if iv == &m.os && m.core.Now() >= m.next {
		m.pollEvents()
	}
}

// end hands the closing interval iv to its sink: the detailed measurement,
// or meas == nil for a fast-forwarded interval, whose prediction the sink
// returns. OS intervals have a sink only in Accelerated mode.
func (m *Machine) end(iv *interval, meas *Measurement) *Prediction {
	switch {
	case iv == &m.app && m.appSink != nil:
		return m.appSink.OnAppEnd(iv.sig, meas)
	case iv == &m.os && m.cfg.Mode == Accelerated && m.sink != nil:
		return m.sink.OnServiceEnd(iv.svc, iv.sig, meas)
	}
	return nil
}

// FinishApp closes the open application interval, if any: the machine calls
// it when an OS service opens and when the CPU idles, and the workload runner
// once after the kernel exits, so the final user-mode stretch is measured or
// extrapolated like any other. Without an attached AppSink it is a no-op.
func (m *Machine) FinishApp() {
	if m.cur == &m.app {
		m.close()
	}
}

// AppIntervalStats reports the application-interval counters: total app
// intervals opened, how many were fast-forwarded, and the total instructions
// fast-forwarded on the application side.
func (m *Machine) AppIntervalStats() (intervals, emulated, emuInsts uint64) {
	return m.app.opened, m.app.emulated, m.app.emuTotal
}

// phantomBase returns the service's stable phantom working-set base,
// reserving generously-spaced address ranges far above any allocated region.
func (m *Machine) phantomBase(svc isa.ServiceID) uint64 {
	if m.phantoms == nil {
		m.phantoms = make(map[isa.ServiceID]uint64)
		m.phantomNext = 0xF000_0000_0000_0000
	}
	base, ok := m.phantoms[svc]
	if !ok {
		base = m.phantomNext
		m.phantomNext += 1 << 32 // room for any footprint
		m.phantoms[svc] = base
	}
	return base
}

// Stats is the machine-level aggregate view used by the experiment harness.
type Stats struct {
	Cycles     uint64
	Insts      uint64
	UserInsts  uint64
	OSInsts    uint64
	Intervals  uint64
	Emulated   uint64
	EmuInsts   uint64 // instructions fast-forwarded in emulation mode
	PredCycles uint64
	Pred       Prediction // accumulated predicted cache activity
	Mem        memsys.Snapshot
	DRAM       uint64
	BrLookups  uint64
	BrMispreds uint64
}

// IPC returns overall instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Coverage returns the fraction of OS service invocations that were
// fast-forwarded (the paper's prediction coverage).
func (s Stats) Coverage() float64 {
	if s.Intervals == 0 {
		return 0
	}
	return float64(s.Emulated) / float64(s.Intervals)
}

// DeclareWarmup marks that this workload will call Warm() at its skip
// boundary (called during setup).
func (m *Machine) DeclareWarmup() { m.warmDeclared = true }

// HasWarmup reports whether the workload declared a warm-up phase.
func (m *Machine) HasWarmup() bool { return m.warmDeclared }

// SetWarmCallback registers the hook invoked once at the warm point.
func (m *Machine) SetWarmCallback(fn func()) { m.warmCb = fn }

// Warm marks the end of the skipped warm-up period: the statistics baseline
// is captured and the registered callback (typically arming the
// acceleration engine) fires. Subsequent Stats() calls report only the
// measured period. Idempotent.
func (m *Machine) Warm() {
	if m.warmed {
		return
	}
	m.warmed = true
	s := m.statsRaw()
	m.base = &s
	if m.warmCb != nil {
		m.warmCb()
	}
}

// Warmed reports whether the warm point has passed.
func (m *Machine) Warmed() bool { return m.warmed }

// Stats returns the aggregate statistics for the measured period (the whole
// run when no warm-up was declared or reached).
func (m *Machine) Stats() Stats {
	st := m.statsRaw()
	if m.base != nil {
		st = st.sub(*m.base)
	}
	return st
}

func (m *Machine) statsRaw() Stats {
	st := Stats{
		Cycles:     m.core.Now(),
		Insts:      m.totalInsts,
		UserInsts:  m.userInsts,
		OSInsts:    m.osInsts,
		Intervals:  m.os.opened,
		Emulated:   m.os.emulated,
		EmuInsts:   m.os.emuTotal,
		PredCycles: m.predCycles,
		Pred:       m.pred,
	}
	if m.mem != nil {
		st.Mem = m.mem.Stats()
		st.DRAM = m.mem.DRAMAccesses()
	}
	st.BrLookups, st.BrMispreds = m.core.Predictor().Stats()
	return st
}

// sub returns s minus a baseline, component-wise.
func (s Stats) sub(b Stats) Stats {
	return Stats{
		Cycles:     s.Cycles - b.Cycles,
		Insts:      s.Insts - b.Insts,
		UserInsts:  s.UserInsts - b.UserInsts,
		OSInsts:    s.OSInsts - b.OSInsts,
		Intervals:  s.Intervals - b.Intervals,
		Emulated:   s.Emulated - b.Emulated,
		EmuInsts:   s.EmuInsts - b.EmuInsts,
		PredCycles: s.PredCycles - b.PredCycles,
		Pred: Prediction{
			Cycles:       s.Pred.Cycles - b.Pred.Cycles,
			L1IMisses:    s.Pred.L1IMisses - b.Pred.L1IMisses,
			L1DMisses:    s.Pred.L1DMisses - b.Pred.L1DMisses,
			L2Misses:     s.Pred.L2Misses - b.Pred.L2Misses,
			L1IAccesses:  s.Pred.L1IAccesses - b.Pred.L1IAccesses,
			L1DAccesses:  s.Pred.L1DAccesses - b.Pred.L1DAccesses,
			L2Accesses:   s.Pred.L2Accesses - b.Pred.L2Accesses,
			L2Writebacks: s.Pred.L2Writebacks - b.Pred.L2Writebacks,
		},
		Mem:        s.Mem.Sub(b.Mem),
		DRAM:       s.DRAM - b.DRAM,
		BrLookups:  s.BrLookups - b.BrLookups,
		BrMispreds: s.BrMispreds - b.BrMispreds,
	}
}

// MissRates returns effective (simulated + predicted) L1I/L1D/L2 miss rates,
// combining detailed-period measurements with prediction-period estimates —
// the quantities Fig 9 compares.
func (s Stats) MissRates() (l1i, l1d, l2 float64) {
	rate := func(miss, acc uint64, pm, pa uint64) float64 {
		a := acc + pa
		if a == 0 {
			return 0
		}
		return float64(miss+pm) / float64(a)
	}
	l1i = rate(s.Mem.L1I.Misses, s.Mem.L1I.Accesses, s.Pred.L1IMisses, s.Pred.L1IAccesses)
	l1d = rate(s.Mem.L1D.Misses, s.Mem.L1D.Accesses, s.Pred.L1DMisses, s.Pred.L1DAccesses)
	l2 = rate(s.Mem.L2.Misses, s.Mem.L2.Accesses, s.Pred.L2Misses, s.Pred.L2Accesses)
	return
}

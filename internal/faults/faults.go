// Package faults generates deterministic fault-injection plans and installs
// them on a simulated machine.
//
// A Plan is a pure function of (seed, Spec): the same pair always yields the
// same event schedule, byte for byte, independent of harness parallelism or
// wall-clock time. This preserves the experiment scheduler's determinism
// guarantee — a faulted run is exactly as reproducible as an unfaulted one —
// while perturbing OS service behavior mid-run so the prediction strategies'
// re-learning machinery (and the divergence watchdog) has real phase changes
// to react to.
//
// Events are expressed in simulated cycles and land inside [Spec.Start,
// Spec.Horizon). Specs are sized for full-scale workloads; use Spec.Scaled to
// shrink the time axis for reduced-scale runs so events still land inside
// short simulations.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"fssim/internal/isa"
	"fssim/internal/kernel"
	"fssim/internal/trace"
)

// Kind enumerates the perturbation types a plan can schedule.
type Kind uint8

const (
	// DiskSpike multiplies block-device seek/transfer latency by Mag for Dur
	// cycles (a latency spike: contention, remapping, a failing sector).
	DiskSpike Kind = iota
	// IRQBurst delivers one spurious device interrupt (Mag holds the vector:
	// the disk or NIC line). Bursts are pre-expanded into closely spaced
	// single events at plan build time.
	IRQBurst
	// NetBurst injects Mag bytes of unsolicited inbound traffic followed by a
	// FIN, driving the receive path (softirq, copy-to-user, socket teardown)
	// outside the workload's own schedule.
	NetBurst
	// NetDrop opens a loss window: for Dur cycles every transmitted segment's
	// delivery is delayed by Mag extra cycles (retransmission timeouts).
	NetDrop
	// SchedJitter opens a window in which every context switch pays extra
	// scheduler work and the running thread's quantum is expired early.
	SchedJitter
	// CacheFlush invalidates all cache levels and the TLB at one instant,
	// forcing every learner's locality assumptions to be re-established.
	CacheFlush
	// PageCacheDrop evicts the OS page cache and dcache (drop_caches): file
	// reads shift from the short hit path onto the blocking disk path — the
	// sharpest service-behavior phase change a running system exhibits.
	PageCacheDrop
)

var kindNames = [...]string{
	"disk-spike", "irq-burst", "net-burst", "net-drop", "sched-jitter", "cache-flush",
	"pagecache-drop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled perturbation. At is the absolute simulated cycle at
// which it fires; Dur the window length for windowed kinds (zero for point
// events); Mag a kind-specific magnitude (latency factor, byte count, extra
// delay, or IRQ vector).
type Event struct {
	At   uint64
	Kind Kind
	Dur  uint64
	Mag  float64
}

// Spec describes a fault plan's shape: how many events of each kind to place
// and how severe they are. All times are simulated cycles at full workload
// scale; Scaled shrinks them proportionally.
type Spec struct {
	Name string

	// Events are placed uniformly at random in [Start, Horizon); windowed
	// events are clamped so At+Dur <= Horizon.
	Start   uint64
	Horizon uint64

	DiskSpikes   int
	DiskFactor   float64 // latency multiplier while a spike window is open
	DiskSpikeLen uint64

	IRQBursts   int
	IRQBurstLen int    // interrupts per burst
	IRQSpacing  uint64 // cycles between interrupts within a burst

	NetBursts     int
	NetBurstBytes int

	NetDrops     int
	NetDropLen   uint64
	NetDropExtra uint64 // extra delivery latency per segment inside the window

	SchedJitters   int
	SchedJitterLen uint64

	CacheFlushes int

	PageCacheDrops int
}

// Scaled returns a copy of the spec with the time axis multiplied by scale,
// matching the workload scale knob: event counts and magnitudes are
// preserved, only when and for how long they act shrinks. Non-positive and
// unit scales return the spec unchanged.
func (s Spec) Scaled(scale float64) Spec {
	if scale <= 0 || scale == 1 {
		return s
	}
	sc := func(v uint64) uint64 {
		n := uint64(float64(v) * scale)
		if v > 0 && n == 0 {
			n = 1
		}
		return n
	}
	s.Start = sc(s.Start)
	s.Horizon = sc(s.Horizon)
	s.DiskSpikeLen = sc(s.DiskSpikeLen)
	s.IRQSpacing = sc(s.IRQSpacing)
	s.NetDropLen = sc(s.NetDropLen)
	s.NetDropExtra = sc(s.NetDropExtra)
	s.SchedJitterLen = sc(s.SchedJitterLen)
	return s
}

// Named presets. Times assume full-scale workloads (tens of millions of
// cycles); reduced-scale runs should apply Spec.Scaled first.
var specs = map[string]Spec{
	"mild": {
		Name:    "mild",
		Start:   3_000_000,
		Horizon: 40_000_000,

		DiskSpikes: 6, DiskFactor: 3, DiskSpikeLen: 800_000,
		IRQBursts: 8, IRQBurstLen: 12, IRQSpacing: 8_000,
		NetBursts: 8, NetBurstBytes: 32 << 10,
		NetDrops: 4, NetDropLen: 600_000, NetDropExtra: 30_000,
		SchedJitters: 4, SchedJitterLen: 600_000,
		CacheFlushes:   8,
		PageCacheDrops: 2,
	},
	"storm": {
		Name:    "storm",
		Start:   2_000_000,
		Horizon: 120_000_000,

		DiskSpikes: 24, DiskFactor: 20, DiskSpikeLen: 2_500_000,
		IRQBursts: 30, IRQBurstLen: 64, IRQSpacing: 4_000,
		NetBursts: 30, NetBurstBytes: 96 << 10,
		NetDrops: 16, NetDropLen: 1_200_000, NetDropExtra: 120_000,
		SchedJitters: 16, SchedJitterLen: 1_200_000,
		CacheFlushes:   40,
		PageCacheDrops: 6,
	},
}

// Named returns the preset spec with the given name.
func Named(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("faults: unknown plan %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names lists the preset spec names in sorted order.
func Names() []string {
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Plan is a concrete, fully materialized fault schedule.
type Plan struct {
	Seed   int64
	Spec   Spec
	Events []Event

	// Applied counts events that actually fired (runs shorter than the
	// horizon never reach late events).
	Applied int
}

// planSeed folds the run seed and the complete spec into the RNG seed, so two
// specs differing in any field draw independent schedules.
func planSeed(seed int64, spec Spec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%+v", seed, spec)
	return int64(h.Sum64() &^ (1 << 63))
}

// NewPlan materializes the spec into a sorted event schedule. It is a pure
// function: identical (seed, spec) pairs yield identical plans.
func NewPlan(seed int64, spec Spec) *Plan {
	p := &Plan{Seed: seed, Spec: spec}
	if spec.Horizon <= spec.Start {
		return p
	}
	rng := rand.New(rand.NewSource(planSeed(seed, spec)))
	span := spec.Horizon - spec.Start

	// window draws a start cycle such that [at, at+dur) fits inside
	// [Start, Horizon); oversized durations are clamped to the span.
	window := func(dur uint64) (uint64, uint64) {
		if dur > span {
			dur = span
		}
		at := spec.Start
		if lim := span - dur; lim > 0 {
			if lim > 1<<62 {
				lim = 1 << 62
			}
			at += uint64(rng.Int63n(int64(lim)))
		}
		return at, dur
	}

	for i := 0; i < spec.DiskSpikes; i++ {
		at, dur := window(spec.DiskSpikeLen)
		p.Events = append(p.Events, Event{At: at, Kind: DiskSpike, Dur: dur, Mag: spec.DiskFactor})
	}
	for i := 0; i < spec.IRQBursts; i++ {
		n := spec.IRQBurstLen
		if n < 1 {
			n = 1
		}
		spacing := spec.IRQSpacing
		if spacing == 0 {
			spacing = 1
		}
		at, dur := window(uint64(n-1) * spacing)
		for j := 0; j < n; j++ {
			off := uint64(j) * spacing
			// A clamped window may end exactly at the horizon; every single
			// interrupt must still fire strictly before it.
			if off > dur || at+off >= spec.Horizon {
				break
			}
			vec := float64(isa.IrqDisk)
			if rng.Intn(2) == 1 {
				vec = float64(isa.IrqNIC)
			}
			p.Events = append(p.Events, Event{At: at + off, Kind: IRQBurst, Mag: vec})
		}
	}
	for i := 0; i < spec.NetBursts; i++ {
		at, _ := window(0)
		p.Events = append(p.Events, Event{At: at, Kind: NetBurst, Mag: float64(spec.NetBurstBytes)})
	}
	for i := 0; i < spec.NetDrops; i++ {
		at, dur := window(spec.NetDropLen)
		p.Events = append(p.Events, Event{At: at, Kind: NetDrop, Dur: dur, Mag: float64(spec.NetDropExtra)})
	}
	for i := 0; i < spec.SchedJitters; i++ {
		at, dur := window(spec.SchedJitterLen)
		p.Events = append(p.Events, Event{At: at, Kind: SchedJitter, Dur: dur})
	}
	for i := 0; i < spec.CacheFlushes; i++ {
		at, _ := window(0)
		p.Events = append(p.Events, Event{At: at, Kind: CacheFlush})
	}
	for i := 0; i < spec.PageCacheDrops; i++ {
		at, _ := window(0)
		p.Events = append(p.Events, Event{At: at, Kind: PageCacheDrop})
	}

	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// Install schedules every event on the kernel's machine. Call after
// kernel.New and workload setup, before the run starts. Events past the end
// of the run simply never fire. When the machine carries a trace recorder,
// each dispatched event bumps a total and a per-kind counter and lands as an
// instant on the timeline; with tracing off the instruments are nil no-ops.
func (p *Plan) Install(k *kernel.Kernel) {
	m := k.Machine()
	rec := m.Trace()
	reg := rec.Metrics()
	total := reg.Counter("faults.dispatched")
	kindCtr := make(map[Kind]*trace.Counter)
	for _, ev := range p.Events {
		if _, ok := kindCtr[ev.Kind]; !ok {
			kindCtr[ev.Kind] = reg.Counter("faults." + ev.Kind.String())
		}
	}
	// One op for the whole plan; the payload is the event's index.
	op := m.RegisterOp(func(i, _ uint64) {
		ev := p.Events[i]
		p.apply(k, ev)
		total.Inc()
		kindCtr[ev.Kind].Inc()
		rec.InstantNow("fault " + ev.Kind.String())
	})
	for i, ev := range p.Events {
		m.ScheduleOp(ev.At, op, uint64(i), 0)
	}
}

func (p *Plan) apply(k *kernel.Kernel, ev Event) {
	p.Applied++
	m := k.Machine()
	switch ev.Kind {
	case DiskSpike:
		k.Disk().Degrade(m.Now()+ev.Dur, ev.Mag)
	case IRQBurst:
		k.InjectIRQ(uint16(ev.Mag))
	case NetBurst:
		k.Net().InjectNoise(int(ev.Mag))
		k.Net().InjectNoiseFIN()
	case NetDrop:
		k.Net().SetLoss(m.Now()+ev.Dur, uint64(ev.Mag))
	case SchedJitter:
		k.SetSchedJitter(m.Now() + ev.Dur)
	case CacheFlush:
		if mem := m.Mem(); mem != nil {
			mem.FlushAll()
		}
	case PageCacheDrop:
		k.FS().DropCaches()
	}
}

// String summarizes the schedule for logs and harness notes.
func (p *Plan) String() string {
	if len(p.Events) == 0 {
		return fmt.Sprintf("plan %q: no events", p.Spec.Name)
	}
	counts := make(map[Kind]int)
	for _, ev := range p.Events {
		counts[ev.Kind]++
	}
	var parts []string
	for k := Kind(0); int(k) < len(kindNames); k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", k, counts[k]))
		}
	}
	return fmt.Sprintf("plan %q: %s in [%d, %d)",
		p.Spec.Name, strings.Join(parts, ", "), p.Spec.Start, p.Spec.Horizon)
}

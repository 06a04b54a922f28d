package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/trace"
	"fssim/internal/workload"
)

// span is one timed call or stretch, recorded from outside the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	ID     int    `json:"id"`     // the run or request the span belongs to
}

// maxSpans bounds the in-memory span log (about 3 MB, the first traced
// pass's first few runs); later spans are counted as dropped. The metrics
// never depend on the log.
const maxSpans = 1 << 16

// spanLog keeps spans in memory for one write when the benchmark ends.
type spanLog struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// add records a span and returns its index, or -1 once the log is full.
// Pass end 0 for a span still open and set it later with end.
func (l *spanLog) add(name string, start, end int64, parent, id int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int, end int64) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].End = end
	l.mu.Unlock()
}

// write stores the log as JSON lines, then one line with the dropped count.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]int{"dropped": l.dropped}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// bucket is where one stretch of a traced run's host time is charged.
type bucket int

const (
	bBuild bucket = iota // workload.Run entry to the first sink call
	bGap                 // between intervals: event dispatch, injection, bookkeeping
	bTail                // last sink call to workload.Run return
	bOSDetailed
	bOSEmulated
	bAppDetailed
	bAppEmulated
	bCore   // inside the accelerator's sink methods
	bSample // inside the sampler's sink methods
	nBuckets
)

var bucketNames = [nBuckets]string{
	"workload.build", "machine.gap", "machine.tail",
	"os.detailed", "os.emulated", "app.detailed", "app.emulated",
	"core", "sample",
}

// tracer measures one traced pass: spans go to the shared log, host time and
// interval instructions are summed per bucket.
type tracer struct {
	log  *spanLog
	pass int // the pass span
	ns   [nBuckets]int64
	// insts counts the instructions of the intervals charged to each
	// interval bucket; calls counts the calls charged to bCore and bSample.
	insts [nBuckets]uint64
	calls [nBuckets]int64
	runNS int64 // summed duration of the traced workload.Run calls
	runs  int
}

func newTracer(log *spanLog, pass int) *tracer {
	return &tracer{log: log, pass: log.add("pass", log.now(), 0, -1, pass)}
}

// run calls workload.Run with both sinks wrapped, so every call the machine
// makes into them marks a boundary between host-time buckets. A Full run
// gets a pass-through OS sink that keeps every interval detailed; the
// machine only calls the OS sink in Accelerated mode, so the run switches
// to it, and the untraced pass it is checked against shows the simulation
// is unchanged.
func (t *tracer) run(bench string, opts workload.Options) (workload.Result, error) {
	r := &runTrace{t: t, id: t.runs}
	t.runs++
	if opts.Sink == nil {
		opts.Machine.Mode = machine.Accelerated
	}
	opts.Sink = &osSink{forwarder{opts.Sink}, r, opts.Sink}
	opts.Sample = &appSink{forwarder{opts.Sample}, r, opts.Sample}
	start := t.log.now()
	r.span = t.log.add("workload.Run", start, 0, t.pass, r.id)
	r.last, r.state = start, bBuild
	res, err := workload.Run(bench, opts)
	if r.state == bGap {
		r.state = bTail
	}
	end := r.stop()
	t.log.end(r.span, end)
	t.runNS += end - start
	return res, err
}

// finish closes the pass span and adds the host-time buckets and the
// measured-versus-Eq-10 accounting to the pass's per-layer values.
func (t *tracer) finish(p *passStats) {
	t.log.end(t.pass, t.log.now())
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	sec := func(b bucket) float64 { return float64(t.ns[b]) / 1e9 }
	perInst := func(bs ...bucket) float64 {
		var ns int64
		var n uint64
		for _, b := range bs {
			ns += t.ns[b]
			n += t.insts[b]
		}
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	perCall := func(b bucket) float64 {
		if t.calls[b] == 0 {
			return 0
		}
		return float64(t.ns[b]) / float64(t.calls[b])
	}
	l := p.layer
	l["os.detailed_s"], l["os.detailed_ns_per_inst"] = sec(bOSDetailed), perInst(bOSDetailed)
	l["os.emulated_s"], l["os.emulated_ns_per_inst"] = sec(bOSEmulated), perInst(bOSEmulated)
	l["app.detailed_s"], l["app.detailed_ns_per_inst"] = sec(bAppDetailed), perInst(bAppDetailed)
	l["app.emulated_s"], l["app.emulated_ns_per_inst"] = sec(bAppEmulated), perInst(bAppEmulated)
	l["core.self_s"], l["core.calls"], l["core.ns_per_call"] = sec(bCore), float64(t.calls[bCore]), perCall(bCore)
	l["sample.self_s"], l["sample.ns_per_call"] = sec(bSample), perCall(bSample)
	l["workload.build_s"], l["machine.gap_s"], l["machine.tail_s"] = sec(bBuild), sec(bGap), sec(bTail)
	if t.runs == 0 {
		return
	}
	// R is the host cost of a detailed instruction over an emulated one, both
	// sides (OS and app) together; Eq 10 applies it to the fast runs' counts.
	emu := perInst(bOSEmulated, bAppEmulated)
	if emu > 0 {
		r := perInst(bOSDetailed, bAppDetailed) / emu
		l["accounting.r_measured"] = r
		l["accounting.eq10_x"] = experiments.SpeedupEq10(p.fastInsts, p.fastEmu, r)
	}
	l["accounting.unattributed_pct"] = 100 * (1 - float64(t.runNS)/float64(p.wall.Nanoseconds()))
}

// runTrace follows one traced workload.Run call. Each stretch between two
// sink calls is charged to the state the machine was in (building, between
// intervals, inside an OS or app interval); each call into the accelerator
// or sampler is charged to that layer.
type runTrace struct {
	t     *tracer
	id    int
	span  int
	last  int64
	state bucket
}

// stop charges the stretch since the last boundary to the current state.
func (r *runTrace) stop() int64 {
	now := r.t.log.now()
	r.t.ns[r.state] += now - r.last
	r.t.log.add(bucketNames[r.state], r.last, now, r.span, r.id)
	r.last = now
	return now
}

// called charges a sink call that began at start to layer b.
func (r *runTrace) called(b bucket, name string, start int64) {
	now := r.t.log.now()
	r.t.ns[b] += now - start
	r.t.calls[b]++
	r.t.log.add(name, start, now, r.span, r.id)
	r.last = now
}

// forwarder passes workload.Run's optional sink hooks through to the wrapped
// sink. Without Defer and Arm the accelerator would learn during warm-up and
// the traced run would simulate something else.
type forwarder struct{ inner any }

func (f forwarder) Defer() {
	if d, ok := f.inner.(interface{ Defer() }); ok {
		d.Defer()
	}
}

func (f forwarder) Arm() {
	if a, ok := f.inner.(interface{ Arm() }); ok {
		a.Arm()
	}
}

func (f forwarder) SetRecorder(rec *trace.Recorder) {
	if s, ok := f.inner.(interface{ SetRecorder(*trace.Recorder) }); ok {
		s.SetRecorder(rec)
	}
}

// osSink times the machine's OS-interval calls; inner is the accelerator,
// or nil for a Full run.
type osSink struct {
	forwarder
	r     *runTrace
	inner machine.IntervalSink
}

func (s *osSink) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	start := s.r.stop()
	detailed, cpi := true, 1.0
	if s.inner != nil {
		detailed, cpi = s.inner.OnServiceStart(svc)
		s.r.called(bCore, "core.OnServiceStart", start)
	}
	s.r.state = bOSEmulated
	if detailed {
		s.r.state = bOSDetailed
	}
	return detailed, cpi
}

func (s *osSink) OnServiceEnd(svc isa.ServiceID, sig machine.Signature, meas *machine.Measurement) *machine.Prediction {
	s.r.t.insts[s.r.state] += sig.Insts
	start := s.r.stop()
	var pred *machine.Prediction
	if s.inner != nil {
		pred = s.inner.OnServiceEnd(svc, sig, meas)
		s.r.called(bCore, "core.OnServiceEnd", start)
	}
	s.r.state = bGap
	return pred
}

// appSink times the machine's app-interval calls; inner is the sampler, or
// nil when every app interval is detailed.
type appSink struct {
	forwarder
	r     *runTrace
	inner machine.AppSink
}

func (s *appSink) OnAppStart() (bool, float64) {
	start := s.r.stop()
	detailed, cpi := true, 1.0
	if s.inner != nil {
		detailed, cpi = s.inner.OnAppStart()
		s.r.called(bSample, "sample.OnAppStart", start)
	}
	s.r.state = bAppEmulated
	if detailed {
		s.r.state = bAppDetailed
	}
	return detailed, cpi
}

func (s *appSink) OnAppEnd(sig machine.Signature, meas *machine.Measurement) *machine.Prediction {
	s.r.t.insts[s.r.state] += sig.Insts
	start := s.r.stop()
	var pred *machine.Prediction
	if s.inner != nil {
		pred = s.inner.OnAppEnd(sig, meas)
		s.r.called(bSample, "sample.OnAppEnd", start)
	}
	s.r.state = bGap
	return pred
}

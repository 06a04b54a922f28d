package sample

import (
	"math"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/stats"
	"fssim/internal/trace"
)

// Sampler implements machine.AppSink: it decides at each application
// interval's start whether to simulate it in detail (stratum representative)
// or fast-forward it, and at the interval's end either folds the detailed
// measurement into its stratum or extrapolates the interval from the
// stratum's recorded representatives.
//
// Strata are core.PLT scaled clusters over the interval signature; they are
// created ONLY by detailed observations (PLT.Learn is never called for
// emulated intervals), so every stratum has at least one measured
// representative, and every emulated interval lands in exactly one stratum:
// its Match, or — as an outlier — the Nearest centroid.
type Sampler struct {
	spec Spec
	seed int64

	table core.PLT
	// Per-stratum parallel state, indexed like table.Clusters.
	det         []int64     // detailed representatives recorded (all-time)
	win         [][]float64 // ring of the last Budget representative CPIs
	winN        []int64     // total CPI samples ever pushed into the ring
	extraInsts  []float64   // instructions extrapolated in the stratum
	extraCycles []float64   // cycles extrapolated in the stratum
	nextCap     []uint64    // interval index at which the stratum is due a recapture

	pooled stats.Moments // all detailed CPI samples (thin-stratum CI fallback)

	idx         uint64 // application intervals decided so far (drives the refresh pick)
	lastOutlier bool   // previous emulated interval matched no stratum range

	// bigSucc is a first-order Markov successor table over *big* strata only
	// (intervals of at least bigMin instructions): bigSucc[i][j] counts how
	// often the big interval in stratum i was eventually followed by a big
	// interval in stratum j, with the one-or-two-instruction boundary
	// stretches between back-to-back syscalls skipped. App interval sequences
	// interleave a deterministic rotation of big user-mode stretches with
	// variable-length runs of those boundary stretches — so *which* big
	// stratum comes next is almost perfectly predictable from the last one,
	// even though *when* it arrives is not. Capture episodes exploit exactly
	// that split.
	bigSucc [][]int64
	ctxBig  int // last big stratum closed (-1 before any)

	// Capture episodes: when the predicted next big stratum is due a fresh
	// representative (nextCap deadline passed, or no sample yet), the sampler
	// forces every interval detailed until a big interval closes — paying a
	// few boundary intervals to guarantee the representative lands where it
	// is needed. capFor is the stratum that opened the episode; capLen bounds
	// a degenerate episode (prediction stops coming true) at captureAbort.
	capturing bool
	capFor    int
	capLen    int

	deferred bool // warm-up: observe nothing, simulate everything in detail

	detailed     int64 // post-arm detailed intervals
	extrapolated int64 // post-arm extrapolated intervals
	outliers     int64 // extrapolated via Nearest (out of every stratum's range)
	underMin     int64 // extrapolated from the pooled CPI (stratum below MinPerStratum)
	detInsts     uint64
	detCycles    uint64

	predScratch machine.Prediction // reused across OnAppEnd calls (AppSink contract)
	trc         *sampleHooks
}

// New builds a sampler for one run. The seed is the run's derived seed
// (experiments.RunKey.DeriveSeed), making every sampling decision a pure
// function of the run's cache key.
func New(spec Spec, seed int64) *Sampler {
	return &Sampler{spec: spec, seed: seed, ctxBig: -1, capFor: -1}
}

// bigMin is the instruction count below which an interval is a boundary
// artifact (a couple of user instructions between back-to-back services)
// rather than a phase of its own: such intervals never form capture targets
// or big-Markov contexts.
const bigMin = 8

// captureAbort bounds a capture episode: if no big interval closes within
// this many decisions, the episode is abandoned and the target's recapture
// deadline pushed back, so a mispredicting chain cannot force the whole run
// detailed.
const captureAbort = 64

// Spec returns the sampler's policy.
func (s *Sampler) Spec() Spec { return s.spec }

// Defer suspends sampling during the workload's declared warm-up: every app
// interval simulates in detail and nothing is observed, exactly like the
// Accelerator's deferred learning. Arm re-enables it at the warm point.
func (s *Sampler) Defer() { s.deferred = true }

// Arm starts sampling (the machine's warm callback).
func (s *Sampler) Arm() { s.deferred = false }

// OnAppStart decides the simulation mode of the opening application
// interval. The signature is not yet known (it is the product of executing
// the interval), so the decision leans on the big-stratum Markov successor
// for capture scheduling, and a fast-forwarded interval's CPI estimate is
// the floor estCPI returns, not a prediction of its stratum. Detailed when
// any of:
//   - the pilot phase is still running (first Pilot intervals),
//   - the previous interval was an outlier (a new behavior may be starting
//     — the detailed follow-up can found its stratum),
//   - a capture episode is running or starting (the predicted next big
//     stratum is due a fresh representative),
//   - the seed-derived refresh hash picks this interval index.
func (s *Sampler) OnAppStart() (detailed bool, estCPI float64) {
	if s.deferred {
		return true, 1
	}
	idx := s.idx
	s.idx++
	if idx < uint64(s.spec.Pilot) || s.lastOutlier {
		return true, 1
	}
	if s.capturing {
		s.capLen++
		if s.capLen <= captureAbort {
			return true, 1
		}
		// The predicted big stratum never arrived: give up, try again later.
		if s.capFor >= 0 && s.capFor < len(s.nextCap) {
			s.nextCap[s.capFor] = idx + s.capturePeriod(s.capFor)
		}
		s.capturing, s.capFor, s.capLen = false, -1, 0
	}
	if b := s.predictNextBig(); b < 0 {
		return true, 1
	} else if b < len(s.winN) && (s.winN[b] == 0 || idx >= s.nextCap[b]) {
		s.capturing, s.capFor, s.capLen = true, b, 0
		return true, 1
	}
	if PickDetailed(s.seed, idx, s.spec.Refresh) {
		return true, 1
	}
	return false, s.estCPI()
}

// capturePeriod returns how many intervals stratum i's representative window
// stays fresh: the spec refresh period, stretched for strata whose recent
// representatives agree (nothing to learn from re-measuring a flat stratum)
// and compressed for drifting or noisy ones — Neyman allocation moved into
// the time domain. Clamped to [Refresh/4, 4×Refresh].
func (s *Sampler) capturePeriod(i int) uint64 {
	base := s.spec.Refresh
	if base <= 0 {
		// Refresh 0 disables recapturing: one representative window per
		// stratum, never refreshed (the deadline is pushed past any run).
		return 1 << 62
	}
	m := s.winMoments(i)
	cv := 0.0
	if mean := m.Mean; m.N >= 2 && mean > 0 {
		cv = math.Sqrt(m.Var()) / mean
	}
	p := float64(base) * 4 / (1 + (cv/0.15)*(cv/0.15))
	if min := float64(base) / 4; p < min {
		p = min
	}
	if p < 1 {
		p = 1
	}
	return uint64(p)
}

// predictNextBig returns the most likely *next big* stratum — the argmax of
// the big-Markov successor row of the last big interval — or -1 without
// history. On the periodic interval sequences this subsystem targets, this
// prediction is near-exact: the big stretches rotate deterministically.
func (s *Sampler) predictNextBig() int {
	if s.ctxBig < 0 || s.ctxBig >= len(s.bigSucc) {
		return -1
	}
	best, bestN := -1, int64(0)
	for j, n := range s.bigSucc[s.ctxBig] {
		if n > bestN {
			best, bestN = j, n
		}
	}
	return best
}

// noteClose records a big interval closing in stratum i: the transition from
// the last big stratum in the big-stratum Markov chain, and i as the new
// context. Boundary intervals (below bigMin) leave the chain untouched.
func (s *Sampler) noteClose(i int, sig machine.Signature) {
	if i < 0 || sig.Insts < bigMin {
		return
	}
	if s.ctxBig >= 0 {
		for len(s.bigSucc) <= s.ctxBig {
			s.bigSucc = append(s.bigSucc, nil)
		}
		row := s.bigSucc[s.ctxBig]
		for len(row) <= i {
			row = append(row, 0)
		}
		row[i]++
		s.bigSucc[s.ctxBig] = row
	}
	s.ctxBig = i
}

// winPush adds a representative CPI to stratum i's ring of the last Budget
// samples. A bounded window rather than an all-time accumulator: early
// representatives of a stratum measure cold caches and page tables, and on a
// drifting stratum a cumulative mean would stay anchored to them forever.
func (s *Sampler) winPush(i int, v float64) {
	w := s.win[i]
	if len(w) < s.spec.Budget {
		s.win[i] = append(w, v)
	} else {
		w[s.winN[i]%int64(s.spec.Budget)] = v
	}
	s.winN[i]++
}

// winMoments returns the moments of stratum i's representative window.
func (s *Sampler) winMoments(i int) stats.Moments {
	var w stats.Moments
	for _, v := range s.win[i] {
		w.Add(v)
	}
	return w
}

// estCPI returns the virtual-clock pacing CPI for a fast-forwarded interval:
// the smallest trusted stratum mean — deliberately the floor, like
// core.Learner.MinClusterCPI. The opening interval's stratum is unknown (the
// boundary-stretch hub dominates every context, so a "predicted" CPI would
// be the hub's, overshooting any big interval by orders of magnitude), and
// an overshoot can never be taken back: the accurate Match-based prediction
// at close tops up the remainder, so pacing low costs nothing but event
// granularity while pacing high corrupts the clock.
func (s *Sampler) estCPI() float64 {
	est := math.Inf(1)
	for i := range s.win {
		if m := s.winMoments(i); m.N >= int64(s.spec.MinPerStratum) && m.Mean > 0 && m.Mean < est {
			est = m.Mean
		}
	}
	if math.IsInf(est, 1) {
		if p := s.pooled.Mean; p > 0 {
			return p
		}
		return 1
	}
	return est
}

// OnAppEnd closes the interval: detailed measurements become stratum
// representatives; emulated intervals are extrapolated from their stratum.
func (s *Sampler) OnAppEnd(sig machine.Signature, meas *machine.Measurement) *machine.Prediction {
	if s.deferred {
		return nil
	}
	if meas != nil {
		s.observe(sig, meas)
		return nil
	}
	return s.extrapolate(sig)
}

// observe folds a detailed representative into its stratum (creating the
// stratum when the signature matches none — the only way strata are born).
func (s *Sampler) observe(sig machine.Signature, meas *machine.Measurement) {
	c := s.table.Learn(sig, meas, s.spec.RangeFrac, 0, s.spec.Mix)
	i := s.table.Index(c)
	s.ensure(i)
	s.det[i]++
	if meas.Insts > 0 {
		v := float64(meas.Cycles) / float64(meas.Insts)
		s.winPush(i, v)
		s.pooled.Add(v)
	}
	s.detailed++
	s.detInsts += meas.Insts
	s.detCycles += meas.Cycles
	if sig.Insts >= bigMin {
		// A big representative landed: its window is fresh, and any running
		// capture episode got what it was waiting for (whichever big stratum
		// actually arrived — a misprediction still measured something useful;
		// a still-due target reopens an episode at its next prediction).
		s.nextCap[i] = s.idx + s.capturePeriod(i)
		if s.capturing {
			s.capturing, s.capFor, s.capLen = false, -1, 0
		}
	}
	s.noteClose(i, sig)
	s.lastOutlier = false
	s.trc.observed(i, len(s.table.Clusters))
}

// extrapolate predicts a fast-forwarded interval from its stratum: cycles
// scale as stratumCPI × interval instructions (the ratio estimator), cache
// activity as the stratum's per-interval means scaled by the same length
// ratio — mirroring how the PLT's scaled clusters extrapolate within range.
func (s *Sampler) extrapolate(sig machine.Signature) *machine.Prediction {
	s.extrapolated++
	c := s.table.Match(sig, s.spec.RangeFrac, 0, s.spec.Mix)
	outlier := c == nil
	if outlier {
		c = s.table.Nearest(sig)
		s.outliers++
	}
	if c == nil {
		// Pathological: no stratum exists at all (possible only if the pilot
		// phase observed zero app intervals). Fall back to IPC 1.
		s.lastOutlier = true
		s.predScratch = machine.Prediction{Cycles: sig.Insts}
		s.trc.extrapolatedHook(-1, true)
		return &s.predScratch
	}
	i := s.table.Index(c)
	s.ensure(i)
	m := s.winMoments(i)
	cpi := m.Mean
	if m.N < int64(s.spec.MinPerStratum) || cpi <= 0 {
		s.underMin++
		cpi = s.fallbackCPI(float64(sig.Insts))
	}
	insts := float64(sig.Insts)
	cycles := cpi * insts
	// Length-ratio scaling for cache activity: in-range members are within
	// ±RangeFrac of the centroid so the ratio is ~1; outliers extrapolate
	// linearly from the nearest stratum.
	scale := 1.0
	if c.Centroid > 0 {
		scale = insts / c.Centroid
	}
	p := &c.Perf
	s.predScratch = machine.Prediction{
		Cycles:       uint64(math.Round(cycles)),
		L1IMisses:    uint64(math.Round(p.L1IM.Mean * scale)),
		L1DMisses:    uint64(math.Round(p.L1DM.Mean * scale)),
		L2Misses:     uint64(math.Round(p.L2M.Mean * scale)),
		L1IAccesses:  uint64(math.Round(p.L1IA.Mean * scale)),
		L1DAccesses:  uint64(math.Round(p.L1DA.Mean * scale)),
		L2Accesses:   uint64(math.Round(p.L2A.Mean * scale)),
		L2Writebacks: uint64(math.Round(p.L2WB.Mean * scale)),
	}
	s.extraInsts[i] += insts
	s.extraCycles[i] += cycles
	s.noteClose(i, sig)
	s.lastOutlier = outlier
	s.trc.extrapolatedHook(i, outlier)
	return &s.predScratch
}

// fallbackCPI estimates the CPI of an interval of the given length when its
// own stratum is too thin to trust: the mean of the *trusted stratum with the
// nearest centroid* on a log scale. Length is the dominant CPI predictor here
// (one-instruction boundary stretches carry the whole mode-switch cost, long
// stretches amortize it), so an unweighted pooled mean — dominated by
// whichever length class is most frequent — would be wildly wrong for every
// other class. Falls back to the instruction-weighted detailed CPI, then 1.
func (s *Sampler) fallbackCPI(insts float64) float64 {
	best, bestD, bestCPI := -1, math.Inf(1), 0.0
	for i, c := range s.table.Clusters {
		if i >= len(s.win) {
			continue
		}
		m := s.winMoments(i)
		if m.N < int64(s.spec.MinPerStratum) || m.Mean <= 0 {
			continue
		}
		d := math.Abs(math.Log((c.Centroid + 1) / (insts + 1)))
		if d < bestD {
			best, bestD, bestCPI = i, d, m.Mean
		}
	}
	if best >= 0 {
		return bestCPI
	}
	if s.detInsts > 0 {
		return float64(s.detCycles) / float64(s.detInsts)
	}
	return 1
}

// ensure grows the per-stratum parallel slices to cover index i.
func (s *Sampler) ensure(i int) {
	for len(s.det) <= i {
		s.det = append(s.det, 0)
		s.win = append(s.win, nil)
		s.winN = append(s.winN, 0)
		s.extraInsts = append(s.extraInsts, 0)
		s.extraCycles = append(s.extraCycles, 0)
		s.nextCap = append(s.nextCap, 0)
	}
}

// Assign returns the stratum index sig would land in right now: its in-range
// Match, else the Nearest stratum, else -1 on an empty table. Every signature
// maps to exactly one stratum — the invariant FuzzStratumAssign pins.
func (s *Sampler) Assign(sig machine.Signature) int {
	c := s.table.Match(sig, s.spec.RangeFrac, 0, s.spec.Mix)
	if c == nil {
		c = s.table.Nearest(sig)
	}
	if c == nil {
		return -1
	}
	return s.table.Index(c)
}

// Strata returns the current stratum count.
func (s *Sampler) Strata() int { return len(s.table.Clusters) }

// PickDetailed reports whether interval index idx is a seed-chosen detailed
// refresh at rate ~1/every. It is a pure, stateless function of
// (seed, idx, every) — the property that keeps sampled runs byte-identical
// at any scheduler parallelism and lets the fuzzer pin representative choice
// to the seed alone.
func PickDetailed(seed int64, idx uint64, every int) bool {
	if every <= 0 {
		return false
	}
	if every == 1 {
		return true
	}
	return mix64(uint64(seed)^mix64(idx))%uint64(every) == 0
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed stateless
// hash for the refresh pick.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// sampleHooks fans the run's trace recorder and pre-resolved sample.*
// instruments into the sampler; every hook is a no-op on a nil receiver so
// the untraced hot path pays one nil check (the accelerator's pattern).
type sampleHooks struct {
	rec          *trace.Recorder
	detailedC    *trace.Counter
	extrapolated *trace.Counter
	outliers     *trace.Counter
	strata       *trace.Gauge
}

func (h *sampleHooks) observed(stratum, total int) {
	if h == nil {
		return
	}
	h.detailedC.Inc()
	h.strata.Set(int64(total))
	h.rec.Annotate(stratum, false)
}

func (h *sampleHooks) extrapolatedHook(stratum int, outlier bool) {
	if h == nil {
		return
	}
	h.extrapolated.Inc()
	if outlier {
		h.outliers.Inc()
	}
	h.rec.Annotate(stratum, outlier)
}

// SetRecorder attaches the run's trace recorder: sampling outcomes annotate
// app-interval spans with their stratum index, and the sample.* counters
// land in the recorder's metrics registry. Nil detaches.
func (s *Sampler) SetRecorder(r *trace.Recorder) {
	if r == nil {
		s.trc = nil
		return
	}
	reg := r.Metrics()
	s.trc = &sampleHooks{
		rec:          r,
		detailedC:    reg.Counter("sample.detailed"),
		extrapolated: reg.Counter("sample.extrapolated"),
		outliers:     reg.Counter("sample.outliers"),
		strata:       reg.Gauge("sample.strata"),
	}
}

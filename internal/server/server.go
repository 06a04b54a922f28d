// Package server is the resilient HTTP/JSON serving front-end over the
// experiment scheduler: the long-lived process that lets many concurrent
// clients submit (benchmark, mode, L2, scale, seed, faults) simulation
// requests and share the deterministic, RunKey-memoized results.
//
// Robustness is the design center:
//
//   - Bounded admission: at most Queue requests are in the building (waiting
//     or running); everything beyond that is shed with 429 + Retry-After.
//     The server never fans out an unbounded goroutine per request.
//   - Deadlines: every request waits at most its deadline (server default,
//     client-reducible) for a result; the simulation itself is bounded by
//     the scheduler's per-run timeout, so a wedged run cannot hold a worker
//     forever or block other clients.
//   - Singleflight dedup: identical in-flight requests join one simulation;
//     identical repeat requests are served from the memo cache. Cache status
//     is reported in the X-Fssim-Cache header; response bodies are a pure
//     function of the request, hence byte-identical and cacheable.
//   - Failure isolation: runs are deterministic, so a failure belongs to its
//     request alone. A panicking or timed-out run reaches its own waiters as
//     an error (500, or 504 on timeout) without affecting other keys, and a
//     watchdog-degraded prediction is served flagged X-Fssim-Degraded.
//   - Graceful drain: on shutdown the server stops admitting, lets in-flight
//     runs finish (or cancels them at the drain deadline), and flushes trace
//     and metrics artifacts before exiting.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/pltstore"
	"fssim/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Addr is the listen address for Serve (e.g. ":8080"; ":0" picks a port).
	Addr string
	// Queue bounds how many requests may be admitted at once, waiting plus
	// running; requests beyond it get 429. Default 64.
	Queue int
	// Workers bounds how many simulations run concurrently (the scheduler's
	// worker-pool width). Default GOMAXPROCS.
	Workers int
	// Deadline is the default and maximum time one request waits for its
	// result. Default 2m.
	Deadline time.Duration
	// DrainTimeout is how long a drain waits for in-flight runs before
	// canceling them; it also bounds the artifact flush when the drain
	// context arrives already expired. Default 30s.
	DrainTimeout time.Duration
	// RunTimeout bounds each simulation's wall-clock time. 0 defaults to
	// Deadline (a run no client can wait for should not pin a worker);
	// negative disables the per-run timeout entirely.
	RunTimeout time.Duration
	// Scale and Seed are the defaults applied to requests that leave them
	// unset. Defaults 1.0 and 1.
	Scale float64
	Seed  int64
	// Trace records every simulation, enabling GET /v1/runs/{id}/trace and
	// the drain-time artifact flush. Implied by TracePath/MetricsPath.
	Trace bool
	// TracePath and MetricsPath, when set, are written on drain (Chrome
	// trace-event JSON — or JSON lines for a .jsonl path — and a plaintext
	// metrics dump, the PR 3 exporter formats).
	TracePath   string
	MetricsPath string
	// WarmDir roots a PLT snapshot store (internal/pltstore): accelerated
	// runs' learned tables are persisted there, identical repeat requests are
	// replayed from disk across server restarts, and GET /v1/plt/{benchmark}
	// serves the newest snapshot. Stale or corrupt snapshots degrade to cold
	// simulation. Empty disables persistence.
	WarmDir string
	// Transfer enables cross-config PLT transfer for accelerated requests
	// carrying a "store" directive: the warm store's nearest eligible donor
	// snapshot is rescaled and imported as priors. Requires WarmDir; an
	// ineligible donor is rejected (counted) and the run proceeds cold.
	Transfer bool
}

func (c Config) normalized() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = c.Deadline
	}
	if c.RunTimeout < 0 {
		c.RunTimeout = 0 // explicit "no per-run timeout"
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TracePath != "" || c.MetricsPath != "" {
		c.Trace = true
	}
	return c
}

// Server is the serving front-end. Build with New, mount Handler on any
// http.Server (or call Serve), and Drain before exit.
type Server struct {
	cfg   Config
	sched *experiments.Scheduler

	baseCtx    context.Context // lifetime of detached simulations
	cancelRuns context.CancelFunc

	queueSlots chan struct{}
	draining   atomic.Bool
	// drainMu serializes admission (the draining check plus inflight.Add)
	// against Drain's flag flip, so no request can Add after Drain observed
	// the flag set and started inflight.Wait — the documented WaitGroup
	// Add/Wait race.
	drainMu  sync.Mutex
	inflight sync.WaitGroup

	latencyEWMA atomic.Int64 // microseconds; feeds Retry-After estimates
	latMu       sync.Mutex   // trace.Histogram is single-writer; handlers are not

	addr    atomic.Value // string; set once Serve has a listener
	started chan struct{}

	// Serving-path instruments, exported via GET /metrics and the drain-time
	// metrics artifact.
	reg        *trace.Registry
	mQueue     *trace.Gauge
	mAdmitted  *trace.Counter
	mShed      *trace.Counter
	mDedup     *trace.Counter
	mCompleted *trace.Counter
	mFailed    *trace.Counter
	mLatency   *trace.Histogram
}

// New builds a Server (without listening; see Serve and Handler).
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	baseCtx, cancel := context.WithCancel(context.Background())
	sched := experiments.NewScheduler(experiments.Config{
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Parallelism: cfg.Workers,
		Timeout:     cfg.RunTimeout,
		Trace:       cfg.Trace,
		WarmDir:     cfg.WarmDir,
		Transfer:    cfg.Transfer,
	}.WithContext(baseCtx))
	reg := trace.NewRegistry()
	s := &Server{
		cfg:        cfg,
		sched:      sched,
		baseCtx:    baseCtx,
		cancelRuns: cancel,
		queueSlots: make(chan struct{}, cfg.Queue),
		started:    make(chan struct{}),
		reg:        reg,
		mQueue:     reg.Gauge("server.queue.depth"),
		mAdmitted:  reg.Counter("server.requests.admitted"),
		mShed:      reg.Counter("server.requests.shed"),
		mDedup:     reg.Counter("server.requests.deduped"),
		mCompleted: reg.Counter("server.requests.completed"),
		mFailed:    reg.Counter("server.requests.failed"),
		mLatency:   reg.Histogram("server.request_latency_us"),
	}
	s.latencyEWMA.Store(int64(time.Second / time.Microsecond))
	return s
}

// Scheduler exposes the underlying memo-cache scheduler (artifact flushing,
// stats).
func (s *Server) Scheduler() *experiments.Scheduler { return s.sched }

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/plt/{benchmark}", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes one JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds estimates how long a shed client should back off: the
// expected time for the queue to make room, from the latency EWMA and the
// worker width, clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	lat := time.Duration(s.latencyEWMA.Load()) * time.Microsecond
	est := lat * time.Duration(len(s.queueSlots)+1) / time.Duration(s.cfg.Workers)
	sec := int(math.Ceil(est.Seconds()))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// observeLatency feeds one completed request's wall time into the EWMA
// (alpha 1/4) and the latency histogram.
func (s *Server) observeLatency(d time.Duration) {
	us := d.Microseconds()
	s.latMu.Lock()
	s.mLatency.Observe(float64(us))
	s.latMu.Unlock()
	for {
		old := s.latencyEWMA.Load()
		next := old + (us-old)/4
		if next <= 0 {
			next = 1
		}
		if s.latencyEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// handleSubmit is POST /v1/runs: admission, deadline, run, respond.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"server is draining"})
		return
	}
	req, err := decodeRunRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	key, err := req.key(s.cfg.Scale, s.cfg.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}

	// Bounded admission: a full queue sheds immediately — the request never
	// allocates a goroutine, a scheduler entry, or a worker.
	select {
	case s.queueSlots <- struct{}{}:
	default:
		s.mShed.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errBody{"admission queue full"})
		return
	}
	// Re-check draining under drainMu before joining the inflight group: a
	// request that raced past the fast-path check above must not Add after
	// Drain flipped the flag and began inflight.Wait.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		<-s.queueSlots
		s.mQueue.Set(int64(len(s.queueSlots)))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"server is draining"})
		return
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	s.mQueue.Set(int64(len(s.queueSlots)))
	defer func() {
		<-s.queueSlots
		s.mQueue.Set(int64(len(s.queueSlots)))
		s.inflight.Done()
	}()
	s.mAdmitted.Add(1)

	// The request waits at most its deadline; the simulation itself runs
	// detached under the server lifetime + per-run timeout, so an abandoned
	// wait leaves the shared run for coalesced clients, the memo cache and
	// GET /v1/runs/{id}.
	id := key.ID()
	ctx, cancel := context.WithTimeout(r.Context(), req.deadline(s.cfg.Deadline))
	defer cancel()
	start := time.Now()
	out, status, err := s.sched.Lookup(ctx, key)
	s.observeLatency(time.Since(start))
	if status != experiments.LookupMiss {
		s.mDedup.Add(1)
	}
	w.Header().Set("X-Fssim-Cache", status.String())
	w.Header().Set("X-Fssim-Run-Id", id)

	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// This waiter gave up (deadline or disconnect); the run itself
			// may still complete for others and for GET by id.
			s.mFailed.Add(1)
			if errors.Is(err, context.DeadlineExceeded) {
				writeJSON(w, http.StatusGatewayTimeout, errBody{"deadline exceeded waiting for run " + id})
			} else {
				writeJSON(w, http.StatusServiceUnavailable, errBody{"request canceled"})
			}
			return
		}
		// The run itself failed (panic, per-run timeout, storm of faults, or
		// drain cancellation).
		s.mFailed.Add(1)
		var re *experiments.RunError
		code := http.StatusInternalServerError
		if errors.As(err, &re) && re.Timeout {
			code = http.StatusGatewayTimeout
		}
		writeJSON(w, code, errBody{err.Error()})
		return
	}

	s.mCompleted.Add(1)
	body, degraded, merr := s.responseBody(id, key, out)
	if merr != nil {
		writeJSON(w, http.StatusInternalServerError, errBody{merr.Error()})
		return
	}
	if degraded {
		w.Header().Set("X-Fssim-Degraded", "true")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// degraded reports whether a completed run's accelerator ended unhealthy (the
// watchdog demoted its predictions).
func (s *Server) degraded(out experiments.Outcome) bool {
	return out.Accel != nil && !out.Accel.Health().Healthy()
}

// responseBody builds the deterministic 200 body for a completed run: a pure
// function of (id, key, outcome), so both paths that render it — the POST
// waiter and GET /v1/runs/{id} — produce identical bytes.
func (s *Server) responseBody(id string, key experiments.RunKey, out experiments.Outcome) (body []byte, degraded bool, err error) {
	degraded = s.degraded(out)
	resp := RunResponse{
		ID:        id,
		Key:       key.String(),
		Benchmark: key.Bench,
		Mode:      key.Mode.String(),
		Cycles:    out.Result.Stats.Cycles,
		Insts:     out.Result.Stats.Insts,
		IPC:       out.Result.Stats.IPC(),
		L2Misses:  out.Result.Stats.Mem.L2.Misses,
		Coverage:  out.Result.Stats.Coverage(),
		Degraded:  degraded,
	}
	if rep := out.Sample; rep != nil {
		resp.Sample = &SampleInfo{
			Strata:       rep.Strata,
			Detailed:     rep.Detailed,
			Extrapolated: rep.Extrapolated,
			Reduction:    rep.Reduction(),
			CIRel:        rep.RelCI(out.Result.Stats.Cycles),
		}
	}
	if p := out.Transfer; p != nil {
		resp.Transfer = &TransferInfo{
			DonorBenchmark: p.DonorBench,
			DonorAddr:      p.DonorAddr,
			Distance:       p.Distance,
			Scale:          p.Scale,
		}
	}
	body, err = json.Marshal(resp)
	if err != nil {
		return nil, degraded, err
	}
	return append(body, '\n'), degraded, nil
}

// handleGet is GET /v1/runs/{id}: the run's current status from the
// scheduler's memo, with the (byte-identical) result body once it is done.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	key, status, out, err := s.sched.ByID(id)
	switch status {
	case experiments.RunUnknown:
		writeJSON(w, http.StatusNotFound, errBody{"unknown run id"})
	case experiments.RunRunning:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "running"})
	case experiments.RunFailed:
		writeJSON(w, http.StatusInternalServerError, errBody{err.Error()})
	default:
		body, _, merr := s.responseBody(id, key, out)
		if merr != nil {
			writeJSON(w, http.StatusInternalServerError, errBody{merr.Error()})
			return
		}
		w.Header().Set("X-Fssim-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}

// handleTrace is GET /v1/runs/{id}/trace: the completed run's Chrome
// trace-event JSON (requires Config.Trace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Trace {
		writeJSON(w, http.StatusNotFound, errBody{"tracing disabled (start the server with tracing enabled)"})
		return
	}
	id := r.PathValue("id")
	key, status, out, _ := s.sched.ByID(id)
	if status == experiments.RunUnknown {
		writeJSON(w, http.StatusNotFound, errBody{"unknown run id"})
		return
	}
	if status != experiments.RunDone || out.Trace == nil {
		writeJSON(w, http.StatusNotFound, errBody{"no trace for run (not finished, or failed)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChrome(w, key.String(), out.Trace); err != nil {
		// Headers are gone; all we can do is abort the body.
		return
	}
}

// handleSnapshot is GET /v1/plt/{benchmark}: the newest persisted PLT
// snapshot for the benchmark, as the raw pltstore bytes. A client can drop
// the body into another process's warm dir to ship learned state between
// hosts. 404 when persistence is disabled, the benchmark has no snapshot, or
// the newest file fails the store's load oracle (size cap, checksum,
// filename identity, validation) — a corrupt store never serves garbage.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.sched.WarmDir() == "" {
		writeJSON(w, http.StatusNotFound, errBody{"PLT persistence disabled (start the server with a warm dir)"})
		return
	}
	bench := r.PathValue("benchmark")
	data, snap, err := s.sched.WarmSnapshot(bench)
	if errors.Is(err, pltstore.ErrNotFound) {
		writeJSON(w, http.StatusNotFound, errBody{"no PLT snapshot for benchmark " + bench})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, errBody{"snapshot invalid: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fssim-Plt-Format-Version", strconv.Itoa(pltstore.FormatVersion))
	w.Header().Set("X-Fssim-Plt-Key", snap.Key)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: draining (or drained) servers are not
// ready (503), so load balancers stop routing before the listener goes away.
// Both branches describe the drain flag and the current load as a
// ReadyState body.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := ReadyState{
		Status:     "ready",
		Draining:   s.draining.Load(),
		QueueDepth: len(s.queueSlots),
		QueueCap:   cap(s.queueSlots),
	}
	status := http.StatusOK
	if body.Draining {
		body.Status, status = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics dumps the serving-path instruments followed by the
// scheduler's cache/worker counters, in the PR 3 plaintext format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.latMu.Lock()
	err := s.reg.WriteText(w)
	s.latMu.Unlock()
	if err != nil {
		return
	}
	_ = s.sched.WriteHarnessMetrics(w)
}

// Drain performs the graceful-shutdown sequence: stop admitting, wait for
// in-flight requests until ctx expires, then cancel the remaining runs and
// wait for them to unwind, and finally flush trace/metrics artifacts. Safe
// to call once; Serve calls it on context cancellation.
func (s *Server) Drain(ctx context.Context) error {
	// The drainMu handshake with handleSubmit guarantees no admission can
	// inflight.Add after the flag flip is visible here.
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: abort in-flight simulations cooperatively. Their
		// waiters resolve as the runs unwind.
		s.cancelRuns()
		<-done
	}
	// Stop the detached simulations that have no waiter left, too.
	s.cancelRuns()
	// The flush gets its own bounded grace budget. Runs canceled above are
	// unwinding; their entries resolve quickly, and whatever did complete must
	// still be persisted — but if ctx already expired we must not flush with a
	// dead context (every wait would be skipped), nor unboundedly (a wedged
	// run would hang shutdown forever).
	fctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
	}
	return s.FlushArtifacts(fctx)
}

// FlushArtifacts writes the configured trace and metrics artifacts (no-op
// when neither path is set). Aborted runs' partial traces are included, so
// an interrupted server still leaves usable diagnostics. Runs still
// executing when ctx ends are skipped (and reported) instead of wedging the
// flush; everything already completed is persisted regardless.
func (s *Server) FlushArtifacts(ctx context.Context) error {
	return WriteArtifacts(ctx, s.sched, s.cfg.TracePath, s.cfg.MetricsPath)
}

// Addr returns the bound listen address once Serve is up (useful with ":0").
func (s *Server) Addr() string {
	<-s.started
	v, _ := s.addr.Load().(string)
	return v
}

// Serve listens on cfg.Addr and serves until ctx is canceled, then drains
// gracefully (bounded by DrainTimeout) and flushes artifacts. It returns nil
// after a clean drain — the exit-0 contract fssimd relies on.
func (s *Server) Serve(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr().String())
	close(s.started)
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.cancelRuns()
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	derr := s.Drain(dctx)
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	defer hcancel()
	herr := hs.Shutdown(hctx)
	return errors.Join(derr, herr)
}

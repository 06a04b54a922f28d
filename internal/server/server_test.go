package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/kernel"
	"fssim/internal/workload"
)

// Misbehaving benchmarks the serving tests drive. Hidden keeps them out of
// workload.Names() (and therefore out of every real experiment).
var (
	flakyFail atomic.Bool           // srv-flaky panics while set
	gateMu    sync.Mutex            // guards gate
	gate      = make(chan struct{}) // srv-gate blocks until the current gate closes
)

func currentGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gate
}

func resetGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	gate = make(chan struct{})
	return gate
}

func closeGate() {
	gateMu.Lock()
	defer gateMu.Unlock()
	select {
	case <-gate:
	default:
		close(gate)
	}
}

func init() {
	workload.Register(workload.Benchmark{
		Name: "srv-ok", Hidden: true,
		Description: "small well-behaved serving-test workload",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("ok", func(p *kernel.Proc) { p.U.Mix(50_000) })
	})
	workload.Register(workload.Benchmark{
		Name: "srv-spin", Hidden: true,
		Description: "spins forever; only cancellation ends it",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("spin", func(p *kernel.Proc) {
			for {
				p.U.Mix(10_000)
			}
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-flaky", Hidden: true,
		Description: "panics while flakyFail is set, succeeds otherwise",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("flaky", func(p *kernel.Proc) {
			if flakyFail.Load() {
				panic("deliberate flaky failure")
			}
			p.U.Mix(20_000)
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-gate", Hidden: true,
		Description: "blocks until the test releases the gate",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("gate", func(p *kernel.Proc) {
			<-currentGate()
			p.U.Mix(1_000)
		})
	})
	workload.Register(workload.Benchmark{
		Name: "srv-gate-fail", Hidden: true,
		Description: "blocks until the test releases the gate, then panics",
	}, func(k *kernel.Kernel, scale float64) {
		k.Spawn("gatefail", func(p *kernel.Proc) {
			<-currentGate()
			panic("deliberate gated failure")
		})
	})
}

// newTestServer builds a Server plus an httptest front and a Client, and
// wires teardown: gates released, detached runs canceled.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		closeGate()
		s.cancelRuns()
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

func okRequest(seed int64) RunRequest {
	return RunRequest{Benchmark: "srv-ok", Mode: "full", Scale: 0.1, Seed: seed}
}

// TestSubmitRepeatByteIdentical: the determinism contract — an identical
// repeat request is served from the memo cache with a byte-identical body,
// and GET /v1/runs/{id} returns those same bytes.
func TestSubmitRepeatByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	first, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Cache != "miss" {
		t.Errorf("first request cache status = %q, want miss", first.Cache)
	}
	if first.Response.Cycles == 0 || first.Response.ID == "" {
		t.Errorf("implausible response: %+v", first.Response)
	}

	second, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if second.Cache != "hit" {
		t.Errorf("repeat request cache status = %q, want hit", second.Cache)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Errorf("repeat response not byte-identical:\n%s\n%s", first.Body, second.Body)
	}

	got, err := c.Get(ctx, first.Response.ID)
	if err != nil {
		t.Fatalf("GET by id: %v", err)
	}
	if !bytes.Equal(got.Body, first.Body) {
		t.Errorf("GET /v1/runs/{id} body differs from POST body")
	}
}

// TestAdmissionBound is robustness clause (a): requests beyond the queue
// capacity are shed with 429 + Retry-After, and shedding allocates nothing —
// the server's goroutine count stays bounded through the storm.
func TestAdmissionBound(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Queue: 2, Workers: 1, Deadline: 30 * time.Second})
	ctx := context.Background()

	// Fill the queue: one gated run occupying the worker, one queued behind.
	results := make(chan error, 2)
	for i := int64(1); i <= 2; i++ {
		req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: i}
		go func() {
			_, err := c.Run(ctx, req)
			results <- err
		}()
	}
	waitFor(t, func() bool { return len(s.queueSlots) == 2 })

	g0 := runtime.NumGoroutine()
	const storm = 25
	codes := make(chan error, storm)
	for i := 0; i < storm; i++ {
		req := RunRequest{Benchmark: "srv-ok", Scale: 0.1, Seed: int64(100 + i)}
		go func() {
			_, err := c.Run(ctx, req)
			codes <- err
		}()
	}
	for i := 0; i < storm; i++ {
		err := <-codes
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("storm request %d: got %v, want ErrOverloaded (429)", i, err)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
			t.Errorf("shed response missing Retry-After: %v", err)
		}
	}
	// Shed requests left nothing behind: goroutines return to (about) the
	// pre-storm level — no per-request fan-out survives.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= g0+8 })

	if shed := s.mShed.Value(); shed != storm {
		t.Errorf("shed counter = %d, want %d", shed, storm)
	}
	closeGate()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed after gate release: %v", err)
		}
	}
}

// TestWedgedRunDeadline is robustness clause (b): a wedged simulation returns
// a deadline error to its client without blocking other clients.
func TestWedgedRunDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, RunTimeout: 5 * time.Second})
	ctx := context.Background()

	wedged := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, RunRequest{
			Benchmark: "srv-spin", Faults: "storm", Scale: 0.1, DeadlineMS: 150,
		})
		wedged <- err
	}()

	// A healthy client on the same server is unaffected.
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("healthy request blocked by wedged run: %v", err)
	}

	select {
	case err := <-wedged:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("wedged run returned %v, want ErrDeadline (504)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged request did not resolve at its deadline")
	}
}

// TestFailedRunReachesCaller: every failed run is reported to its own
// caller as a 500 — repeated failures on one (benchmark, mode) never turn
// into fast-failed 503s — and failures are not cached, so the same request
// succeeds once the benchmark recovers. Other benchmarks are unaffected.
func TestFailedRunReachesCaller(t *testing.T) {
	flakyFail.Store(true)
	defer flakyFail.Store(false)
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-flaky", Scale: 0.1}

	for i := 0; i < 4; i++ {
		_, err := c.Run(ctx, req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing run %d returned %v, want a 500 APIError", i, err)
		}
	}
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("srv-ok failed beside a failing benchmark: %v", err)
	}
	flakyFail.Store(false)
	res, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("recovered benchmark still failing: %v", err)
	}
	if res.Cache != "miss" || res.Response.Cycles == 0 {
		t.Errorf("recovered run = cache %q, %d cycles; want a fresh miss", res.Cache, res.Response.Cycles)
	}
}

// TestAbandonedRunStillResolvesRecord: when every waiter gives up before the
// run completes, the detached run still completes in the scheduler's memo,
// so GET /v1/runs/{id} serves the documented "result may become available
// later under the same id" contract instead of reporting 202 forever.
func TestAbandonedRunStillResolvesRecord(t *testing.T) {
	resetGate()
	_, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: 11, DeadlineMS: 50}

	_, err := c.Run(ctx, req)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("gated run with 50ms deadline returned %v, want ErrDeadline", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("504 without APIError: %v", err)
	}
	id := strings.TrimPrefix(ae.Message, "deadline exceeded waiting for run ")
	if id == ae.Message || id == "" {
		t.Fatalf("504 body does not name the run id: %q", ae.Message)
	}

	// Still gated: the record reports running (202).
	if res, err := c.Get(ctx, id); err != nil || res != nil {
		t.Fatalf("Get before completion = (%v, %v), want 202 (nil, nil)", res, err)
	}

	// Release the run with no waiter attached; GET must see it complete.
	closeGate()
	var got *RunResult
	waitFor(t, func() bool {
		res, err := c.Get(ctx, id)
		got = res
		return err == nil && res != nil
	})
	if got.Response.ID != id || got.Response.Cycles == 0 {
		t.Errorf("implausible settled record: %+v", got.Response)
	}

	// The settled body is byte-identical to what a fresh POST now serves.
	req.DeadlineMS = 0
	fresh, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("post-release run failed: %v", err)
	}
	if !bytes.Equal(fresh.Body, got.Body) {
		t.Errorf("settled record body differs from POST body:\n%s\n%s", got.Body, fresh.Body)
	}
}

// TestGetByIDStates walks GET /v1/runs/{id} through the answers other tests
// leave out: 404 for an id no POST claimed, and 500 naming the cause of a
// failed run — also when every waiter gave up before the failure, after a
// 202 while it ran. (The 200 body is TestSubmitRepeatByteIdentical's.)
func TestGetByIDStates(t *testing.T) {
	resetGate()
	flakyFail.Store(true)
	defer flakyFail.Store(false)
	_, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	status := func(id string) int {
		t.Helper()
		_, err := c.Get(ctx, id)
		var ae *APIError
		switch {
		case err == nil:
			return http.StatusOK // 200, or 202 as (nil, nil)
		case errors.As(err, &ae):
			return ae.StatusCode
		}
		t.Fatalf("GET %s: %v", id, err)
		return 0
	}
	if code := status("r0000000000000000"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}

	// A failed run with a waiter: the POST and the GET both name the cause.
	if _, err := c.Run(ctx, RunRequest{Benchmark: "srv-flaky", Scale: 0.1}); err == nil {
		t.Fatal("flaky run succeeded")
	}
	flaky, _ := RunRequest{Benchmark: "srv-flaky", Scale: 0.1}.key(1, 1)
	_, err := c.Get(ctx, flaky.ID())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(ae.Message, "deliberate flaky failure") {
		t.Errorf("GET of a failed run = %v, want a 500 naming the panic", err)
	}

	// A failed run whose only waiter gave up while it was still running.
	req := RunRequest{Benchmark: "srv-gate-fail", Scale: 0.1, DeadlineMS: 50}
	if _, err := c.Run(ctx, req); !errors.Is(err, ErrDeadline) {
		t.Fatalf("gated run with 50ms deadline returned %v, want ErrDeadline", err)
	}
	gated, _ := req.key(1, 1)
	if res, err := c.Get(ctx, gated.ID()); err != nil || res != nil {
		t.Fatalf("GET while gated = (%v, %v), want 202 (nil, nil)", res, err)
	}
	closeGate()
	waitFor(t, func() bool { return status(gated.ID()) != http.StatusOK })
	_, err = c.Get(ctx, gated.ID())
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(ae.Message, "deliberate gated failure") {
		t.Errorf("GET of an abandoned failed run = %v, want a 500 naming the panic", err)
	}
}

// TestGetByIDNever404OnceClaimed: once the scheduler holds a POST's run, a
// concurrent GET of its id never answers 404 — not while it runs, not as it
// completes or fails and leaves the memo, not after. Run under -race.
func TestGetByIDNever404OnceClaimed(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	var ids []string
	posted := make(chan error, 2)
	for _, bench := range []string{"srv-gate", "srv-gate-fail"} {
		req := RunRequest{Benchmark: bench, Scale: 0.1, Seed: 21}
		key, err := req.key(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, key.ID())
		go func() {
			_, err := c.Run(ctx, req)
			posted <- err
		}()
	}
	waitFor(t, func() bool { return s.sched.Stats().Misses == 2 })

	const readers = 4
	var notFound, rounds atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					var ae *APIError
					if _, err := c.Get(ctx, id); errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
						notFound.Add(1)
					}
				}
				rounds.Add(1)
			}
		}()
	}
	// Every reader reads the running runs, then the gate releases them while
	// the readers go on, and every reader reads the settled runs too.
	waitFor(t, func() bool { return rounds.Load() >= readers })
	closeGate()
	okErr, failErr := <-posted, <-posted
	if (okErr == nil) == (failErr == nil) {
		t.Errorf("POST results %v and %v, want one success and one failure", okErr, failErr)
	}
	settled := rounds.Load()
	waitFor(t, func() bool { return rounds.Load() >= settled+2*readers })
	close(stop)
	wg.Wait()
	if n := notFound.Load(); n != 0 {
		t.Errorf("%d GETs of claimed run ids answered 404", n)
	}
	if res, err := c.Get(ctx, ids[0]); err != nil || res == nil {
		t.Errorf("GET of the done run = (%v, %v), want 200", res, err)
	}
	var ae *APIError
	if _, err := c.Get(ctx, ids[1]); !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET of the failed run = %v, want 500", err)
	}
}

// TestDedupSingleflight is robustness clause (e): two concurrent identical
// requests share one simulation and produce byte-identical bodies.
func TestDedupSingleflight(t *testing.T) {
	resetGate()
	s, c := newTestServer(t, Config{Workers: 2, Deadline: 30 * time.Second})
	ctx := context.Background()
	req := RunRequest{Benchmark: "srv-gate", Scale: 0.1, Seed: 7}

	type reply struct {
		res *RunResult
		err error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := c.Run(ctx, req)
			replies <- reply{res, err}
		}()
	}
	// Both requests are in the building before the run can finish.
	waitFor(t, func() bool { return len(s.queueSlots) == 2 })
	closeGate()

	a, b := <-replies, <-replies
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent identical requests failed: %v / %v", a.err, b.err)
	}
	if !bytes.Equal(a.res.Body, b.res.Body) {
		t.Errorf("concurrent identical requests differ:\n%s\n%s", a.res.Body, b.res.Body)
	}
	statuses := []string{a.res.Cache, b.res.Cache}
	miss := 0
	for _, st := range statuses {
		if st == "miss" {
			miss++
		} else if st != "coalesced" && st != "hit" {
			t.Errorf("unexpected cache status %q", st)
		}
	}
	if miss != 1 {
		t.Errorf("cache statuses = %v, want exactly one miss", statuses)
	}
	if st := s.sched.Stats(); st.Misses != 1 {
		t.Errorf("scheduler executed %d simulations for 2 identical requests, want 1", st.Misses)
	}
	if s.mDedup.Value() != 1 {
		t.Errorf("dedup counter = %d, want 1", s.mDedup.Value())
	}
}

// TestDrain is robustness clause (d): draining stops admission, resolves
// in-flight runs (canceling them at the drain deadline), and flushes trace
// and metrics artifacts — including the aborted runs' partial traces.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	s, c := newTestServer(t, Config{
		Workers: 2, Deadline: 30 * time.Second, RunTimeout: -1,
		TracePath: tracePath, MetricsPath: metricsPath,
	})
	ctx := context.Background()

	// A run that will still be in flight when the drain starts.
	spinErr := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, RunRequest{Benchmark: "srv-spin", Scale: 0.1})
		spinErr <- err
	}()
	// And one completed run whose trace must survive into the artifacts.
	if _, err := c.Run(ctx, okRequest(1)); err != nil {
		t.Fatalf("setup run failed: %v", err)
	}
	waitFor(t, func() bool { return len(s.queueSlots) == 1 })

	dctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()

	// While draining: no new admissions, readyz reports not-ready.
	waitFor(t, func() bool { return s.draining.Load() })
	if _, err := c.Run(ctx, okRequest(99)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("draining server admitted a request: %v", err)
	}
	if c.Ready(ctx) {
		t.Error("draining server reports ready")
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	// The in-flight spin run was resolved (canceled), not abandoned.
	select {
	case err := <-spinErr:
		if err == nil {
			t.Error("endless run reported success after drain cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request still unresolved after drain")
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace artifact not flushed: %v", err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) {
		t.Error("trace artifact malformed")
	}
	if !strings.Contains(string(trace), "!aborted") {
		t.Error("canceled run's partial trace missing from the drain artifact")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics artifact not flushed: %v", err)
	}
	for _, want := range []string{"# run ", "sched.distinct"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics artifact missing %q", want)
		}
	}
}

// TestServeDrainExitsClean drives the full Serve lifecycle: listen, serve a
// request, cancel the context, and return nil after a clean drain (the
// exit-0 contract fssimd relies on for SIGTERM).
func TestServeDrainExitsClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()
	c := NewClient("http://" + s.Addr())

	if _, err := c.Run(context.Background(), okRequest(1)); err != nil {
		t.Fatalf("run against Serve: %v", err)
	}
	if !c.Ready(context.Background()) {
		t.Error("serving server not ready")
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestBadRequests: malformed submissions fail fast with 400 and never reach
// the scheduler.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{})
	hc := &http.Client{}
	post := func(body string) int {
		t.Helper()
		resp, err := hc.Post(c.base+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]string{
		"empty":            ``,
		"not json":         `}{`,
		"unknown field":    `{"benchmark":"srv-ok","bogus":1}`,
		"unknown bench":    `{"benchmark":"no-such-bench"}`,
		"unknown mode":     `{"benchmark":"srv-ok","mode":"warp"}`,
		"unknown strategy": `{"benchmark":"srv-ok","mode":"accel","strategy":"vibes"}`,
		"unknown faults":   `{"benchmark":"srv-ok","faults":"apocalypse"}`,
		"bad sample spec":  `{"benchmark":"srv-ok","sample":"budget=0"}`,
		"NaN sample range": `{"benchmark":"srv-ok","sample":"range=NaN"}`,
		"bad transfer":     `{"benchmark":"srv-ok","mode":"accel","transfer":"l2=nope"}`,
		"transfer nonacc":  `{"benchmark":"srv-ok","mode":"full","transfer":"store"}`,
		"huge scale":       `{"benchmark":"srv-ok","scale":1000}`,
		"negative seed":    `{"benchmark":"srv-ok","seed":-1}`,
		"trailing":         `{"benchmark":"srv-ok"} garbage`,
	}
	for name, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if st := s.sched.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("bad requests reached the scheduler: %+v", st)
	}
}

// TestTraceEndpoint: traced servers serve per-run Chrome traces; untraced
// servers say so.
func TestTraceEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Trace: true})
	ctx := context.Background()
	res, err := c.Run(ctx, okRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/v1/runs/" + res.Response.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace endpoint returned no events (err %v)", err)
	}
	if resp, err := http.Get(c.base + "/v1/runs/nope/trace"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id trace: status %d, want 404", resp.StatusCode)
		}
	}

	_, untraced := newTestServer(t, Config{})
	if res2, err := untraced.Run(ctx, okRequest(1)); err == nil {
		if resp, err := http.Get(untraced.base + "/v1/runs/" + res2.Response.ID + "/trace"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("untraced server trace: status %d, want 404", resp.StatusCode)
			}
		}
	}
}

// TestMetricsEndpoint: the serving-path instruments are exported in the PR 3
// plaintext format alongside the scheduler's counters.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.Run(context.Background(), okRequest(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"server.requests.admitted 1",
		"server.queue.depth",
		"server.request_latency_us",
		"sched.distinct",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestSampledRun: a request with a sampling spec is a distinct cache entry
// from its unsampled twin, reports the estimator's split and CI in the
// response, and every spelling of one policy shares a run id (and therefore
// a memo entry).
func TestSampledRun(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	req := RunRequest{Benchmark: "ab-rand", Mode: "full", Scale: 0.25, Seed: 1}
	plain, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Response.Sample != nil {
		t.Error("unsampled response carries sample info")
	}
	req.Sample = "default"
	sampled, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Response.ID == plain.Response.ID {
		t.Error("sampled and unsampled runs share an id")
	}
	if sampled.Response.Sample == nil {
		t.Fatal("sampled response missing sample info")
	}
	if sampled.Response.Sample.Detailed <= 0 || sampled.Response.Sample.Extrapolated <= 0 {
		t.Errorf("degenerate sampled split: %+v", sampled.Response.Sample)
	}
	if sampled.Response.Sample.Reduction <= 1 {
		t.Errorf("reduction %.2f, want > 1", sampled.Response.Sample.Reduction)
	}
	req.Sample = "budget=8,min=2,pilot=64,range=0.05,refresh=64" // "default", spelled out
	spelled, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if spelled.Response.ID != sampled.Response.ID {
		t.Error("spellings of one sampling policy produced distinct run ids")
	}
}

// TestTransferRun: an accel request with a "l2=" transfer directive imports
// the sibling donor and reports provenance; a "store" directive on a server
// with no warm store is rejected — counted, cold, and provenance-free.
func TestTransferRun(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	base := RunRequest{Benchmark: "ab-rand", Mode: "accel", Scale: 0.25, Seed: 1}
	cold, err := c.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Response.Transfer != nil {
		t.Error("cold response carries transfer info")
	}

	req := base
	req.Transfer = "l2=524288"
	xfer, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Response.ID == cold.Response.ID {
		t.Error("transferred and cold runs share an id")
	}
	ti := xfer.Response.Transfer
	if ti == nil {
		t.Fatal("transferred response missing transfer info")
	}
	if ti.DonorBenchmark != "ab-rand" || ti.Distance != 1.0 {
		t.Errorf("provenance %+v, want the ab-rand sibling at distance 1.0", ti)
	}
	if ti.Scale <= 0 || ti.DonorAddr == "" {
		t.Errorf("degenerate provenance %+v", ti)
	}

	req.Transfer = "store"
	rej, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Response.Transfer != nil {
		t.Errorf("rejected store directive still reports transfer info %+v", rej.Response.Transfer)
	}
	if rej.Response.Cycles != cold.Response.Cycles {
		t.Errorf("rejected transfer's cycles %d differ from cold %d", rej.Response.Cycles, cold.Response.Cycles)
	}
	if st := s.sched.Stats(); st.TransferHits != 1 || st.TransferRejected != 1 {
		t.Errorf("transfer hits %d rejected %d, want 1 and 1", st.TransferHits, st.TransferRejected)
	}
}

// TestDeterministicRunID: ids are a pure function of the request, and
// distinct requests get distinct ids.
func TestDeterministicRunID(t *testing.T) {
	key := func(seed int64) experiments.RunKey {
		k, err := RunRequest{Benchmark: "srv-ok", Scale: 0.1, Seed: seed}.key(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(1).ID() != key(1).ID() {
		t.Error("identical requests produced different ids")
	}
	if key(1).ID() == key(2).ID() {
		t.Error("different seeds share an id")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/pltstore"
	"fssim/internal/server"
)

// Serve-sweep shape: two closed-loop clients (the callers of a simulation
// service, each waiting for its reply) sweep the L2 capacity of two
// OS-intensive benchmarks on a server with one simulation worker, so on a
// two-core host no simulation shares its timing with a second one. The 512 KB point is the transfer donor; 1 MB and
// 2 MB import its learned tables and 8 MB lies beyond the transfer cutoff.
// Each benchmark's Full run at the default 1 MB is the accuracy reference.
const (
	serveClients = 2
	serveWorkers = 1
	serveRepeats = 10 // requests per distinct run in the cold phase
	donorL2      = 512 << 10
	refL2        = 1 << 20
)

var (
	serveBenches = []string{"ab-rand", "ab-seq"}
	sweepL2      = []int{donorL2, 1 << 20, 2 << 20, 8 << 20}
)

// request is one distinct POST /v1/runs body.
type request struct {
	name string
	body []byte
	full bool
}

func newRequest(bench string, full bool, l2 int) *request {
	q := server.RunRequest{Benchmark: bench, Mode: "accel", L2: l2}
	name := fmt.Sprintf("%s accel l2=%d", bench, l2)
	if full {
		q.Mode = "full"
		name = fmt.Sprintf("%s full l2=%d", bench, l2)
	} else if l2 != donorL2 {
		q.Transfer = fmt.Sprintf("l2=%d", donorL2)
	}
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return &request{name: name, body: body, full: full}
}

type serveSweep struct {
	rng    *rand.Rand
	client *http.Client
	// The cold phase runs in three stages, each started once the previous
	// one is answered, so which simulations overlap on the two workers does
	// not depend on the shuffle: the donors, then the transfer recipients,
	// then the two Full references followed by every repeat.
	donors, recipients, refs []*request
	accel                    []*request // replayed after the restart
	// bodies holds the first body seen per request, across passes: every
	// later reply must be byte-identical.
	bodies   map[string][]byte
	lastWarm string
	reqs     atomic.Int64
}

// newServeSweep drives an in-process server behind a loopback listener.
// It is the only workload for the scheduler, the server, transfer and the
// PLT store, which it writes in the cold phase and reads after a restart.
func newServeSweep(seed int64) *serveSweep {
	w := &serveSweep{
		rng:    rand.New(rand.NewSource(seed)),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		bodies: map[string][]byte{},
	}
	for _, b := range serveBenches {
		for _, l2 := range sweepL2 {
			q := newRequest(b, false, l2)
			w.accel = append(w.accel, q)
			if l2 == donorL2 {
				w.donors = append(w.donors, q)
			} else {
				w.recipients = append(w.recipients, q)
			}
		}
		w.refs = append(w.refs, newRequest(b, true, refL2))
	}
	return w
}

// reply is one request's outcome.
type reply struct {
	req    *request
	status int
	cache  string
	lat    time.Duration
	body   []byte
	err    error
}

// setup starts a server on a fresh store, serves one small run and drains.
func (w *serveSweep) setup(dir string) error {
	warm := &request{name: "warm-up", body: []byte(`{"benchmark":"ab-rand","mode":"accel","scale":0.25}`)}
	replies, _, err := w.phase(filepath.Join(dir, "warm"), [][]*request{{warm}}, nil)
	if err != nil {
		return err
	}
	if r := replies[0]; r.err != nil || r.status != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d, %v", r.status, r.err)
	}
	return nil
}

// phase starts a server on the warm store, sends each stage's requests from
// the closed-loop clients (a stage starts when the previous one is answered)
// and drains the server. It returns the replies and the scheduler's counters
// after each stage, the last taken after the drain.
func (w *serveSweep) phase(warm string, stages [][]*request, tr *tracer) ([]reply, []experiments.SchedStats, error) {
	srv := server.New(server.Config{WarmDir: warm, Transfer: true, Workers: serveWorkers})
	ts := httptest.NewServer(srv.Handler())
	var out []reply
	var stats []experiments.SchedStats
	for _, st := range stages {
		out = append(out, w.drive(ts.URL, st, tr)...)
		stats = append(stats, srv.Scheduler().Stats())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Drain(ctx)
	w.client.CloseIdleConnections()
	ts.Close()
	stats[len(stats)-1] = srv.Scheduler().Stats()
	return out, stats, err
}

// drive sends reqs in order from serveClients goroutines, each sending its
// next request only after its previous reply.
func (w *serveSweep) drive(url string, reqs []*request, tr *tracer) []reply {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = w.post(url, reqs[i], tr)
			}
		}()
	}
	wg.Wait()
	return out
}

func (w *serveSweep) post(url string, q *request, tr *tracer) reply {
	id := int(w.reqs.Add(1))
	var start int64
	if tr != nil {
		start = tr.log.now()
	}
	t := time.Now()
	r := reply{req: q}
	resp, err := w.client.Post(url+"/v1/runs", "application/json", bytes.NewReader(q.body))
	if err == nil {
		r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Fssim-Cache")
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.lat, r.err = time.Since(t), err
	if tr != nil {
		tr.log.add("server.request "+q.name, start, tr.log.now(), tr.pass, id)
	}
	return r
}

// pass is one sweep on a fresh store, in the cold phase's three stages with
// the recipients and the repeats in seeded shuffles; then a second server on
// the same store replays the accelerated set.
func (w *serveSweep) pass(dir string, tr *tracer) (*passStats, error) {
	warm := filepath.Join(dir, "warm")
	w.lastWarm = warm
	var repeats []*request
	for _, q := range append(append([]*request(nil), w.accel...), w.refs...) {
		for k := 1; k < serveRepeats; k++ {
			repeats = append(repeats, q)
		}
	}
	stages := [][]*request{w.donors, w.shuffled(w.recipients), append(append([]*request(nil), w.refs...), w.shuffled(repeats)...)}
	cold, stageStats, err := w.phase(warm, stages, tr)
	if err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	restarted, restartStats, err := w.phase(warm, [][]*request{w.shuffled(w.accel)}, tr)
	if err != nil {
		return nil, fmt.Errorf("restarted phase: %w", err)
	}
	coldStats, warmStats := stageStats[len(stageStats)-1], restartStats[0]

	p := &passStats{layer: map[string]float64{}}
	var all, hit, miss, warmLat []float64
	cycles := map[string]uint64{}
	check := func(r reply, phase string) {
		p.ops++
		ms := float64(r.lat.Nanoseconds()) / 1e6
		all = append(all, ms)
		if r.err != nil || r.status != http.StatusOK {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("%s %s: status %d, %v: %s", phase, r.req.name, r.status, r.err, bytes.TrimSpace(r.body)))
			return
		}
		if prev, ok := w.bodies[r.req.name]; !ok {
			w.bodies[r.req.name] = r.body
		} else if !bytes.Equal(prev, r.body) {
			p.problems = append(p.problems, fmt.Sprintf("%s %s: reply differs from an earlier one for the same request", phase, r.req.name))
		}
		var resp server.RunResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			p.problems = append(p.problems, fmt.Sprintf("%s %s: %v", phase, r.req.name, err))
			return
		}
		cycles[r.req.name] = resp.Cycles
		if phase == "restarted" {
			warmLat = append(warmLat, ms)
			return
		}
		switch r.cache {
		case "miss":
			miss = append(miss, ms)
			if r.req.full {
				p.fullInsts += resp.Insts
			} else {
				p.fastInsts += resp.Insts
			}
		case "hit":
			hit = append(hit, ms)
		}
	}
	for _, r := range cold {
		check(r, "cold")
	}
	// The scheduler times each simulation it executes. Stages 1 and 2 run
	// every accelerated simulation and stage 3 the two Full ones.
	p.fastHost = stageStats[1].SimWall
	p.fullHost = stageStats[2].SimWall - stageStats[1].SimWall
	for _, r := range restarted {
		check(r, "restarted")
	}

	var errSum float64
	for _, b := range serveBenches {
		full := float64(cycles[newRequest(b, true, refL2).name])
		fast := float64(cycles[newRequest(b, false, refL2).name])
		if full == 0 || fast == 0 {
			continue
		}
		errSum += 100 * math.Abs(fast-full) / full
	}
	p.errPct = errSum / float64(len(serveBenches))
	var exact strings.Builder
	names := make([]string, 0, len(w.bodies))
	for n := range w.bodies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&exact, "%s %s", n, w.bodies[n])
	}
	p.exact = exact.String()

	l := p.layer
	l["server.req_p50_ms"], l["server.req_p90_ms"] = percentile(all, 0.5), percentile(all, 0.9)
	l["server.hit_p50_ms"], l["server.miss_p50_ms"] = percentile(hit, 0.5), percentile(miss, 0.5)
	l["server.warm_p50_ms"] = percentile(warmLat, 0.5)
	l["server.rejected"] = float64(p.failed)
	l["experiments.distinct_runs"] = float64(coldStats.Distinct)
	l["experiments.memo_hits"] = float64(coldStats.Hits)
	l["experiments.warm_saves"] = float64(coldStats.WarmSaves)
	l["experiments.warm_hits"] = float64(warmStats.WarmHits)
	l["experiments.sim_s"] = coldStats.SimWall.Seconds()
	l["transfer.hits"] = float64(coldStats.TransferHits)
	l["transfer.rejected"] = float64(coldStats.TransferRejected)
	return p, nil
}

func (w *serveSweep) shuffled(reqs []*request) []*request {
	out := append([]*request(nil), reqs...)
	w.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// probe calls the PLT store on the snapshots the last pass wrote: the
// recovery sweep of Open, Load of every snapshot, and Save of each into a
// fresh store through the durable fsync path. Each is repeated, and the
// medians are reported.
func (w *serveSweep) probe(dir string) (map[string]float64, error) {
	const reps = 3
	var open, load, save, kb []float64
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		st := pltstore.Open(w.lastWarm)
		if _, err := st.Recover(); err != nil {
			return nil, fmt.Errorf("recover %s: %w", w.lastWarm, err)
		}
		open = append(open, ms(time.Since(t)))
		paths, err := st.List("")
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no snapshots in %s", w.lastWarm)
		}
		fresh := pltstore.Open(filepath.Join(dir, fmt.Sprintf("fresh%d", rep)))
		for _, path := range paths {
			t = time.Now()
			snap, err := st.LoadPath(path)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", path, err)
			}
			load = append(load, ms(time.Since(t)))
			t = time.Now()
			if err := fresh.Save(snap); err != nil {
				return nil, fmt.Errorf("save %s: %w", path, err)
			}
			save = append(save, ms(time.Since(t)))
			if rep == 0 {
				fi, err := os.Stat(path)
				if err != nil {
					return nil, err
				}
				kb = append(kb, float64(fi.Size())/1024)
			}
		}
	}
	var sum float64
	for _, v := range kb {
		sum += v
	}
	return map[string]float64{
		"pltstore.open_ms":     median(open),
		"pltstore.load_ms":     median(load),
		"pltstore.save_ms":     median(save),
		"pltstore.snapshot_kb": sum / float64(len(kb)),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

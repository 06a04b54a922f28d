// Package guest implements the simulated application programs of the
// evaluation suite: an Apache-like web server driven by the paper's ab-rand
// and ab-seq client workloads, the Unix tools du and find|od, the iperf
// network benchmark, and four SPEC2000-like compute kernels. All of them run
// as guest threads over the simulated kernel and emit user-mode instruction
// streams through the Proc API.
package guest

import (
	"fmt"
	"math/rand"

	"fssim/internal/kernel"
	"fssim/internal/machine"
)

// WebConfig parameterizes the web-server benchmark.
type WebConfig struct {
	Workers     int   // server worker threads sharing an accept mutex
	Requests    int   // measured HTTP requests the client issues
	Warmup      int   // skipped warm-up requests before measurement begins
	Concurrency int   // concurrent client connections (paper: 8)
	Sequential  bool  // false = ab-rand, true = ab-seq
	Seed        int64 // client randomness
	FileSizes   []int64
}

// DefaultWebConfig mirrors the paper's setup scaled 8x down: eight servable
// files spanning 13KB..176KB (paper: 104KB..1.4MB), eight concurrent client
// connections. Together with the skb slab pool the document set keeps the
// server's working set straddling the 512KB/1MB L2 capacities under study.
func DefaultWebConfig(sequential bool, requests int) WebConfig {
	warm := requests / 4
	if warm > 120 {
		warm = 120
	}
	return WebConfig{
		Workers:     4,
		Requests:    requests,
		Warmup:      warm,
		Concurrency: 8,
		Sequential:  sequential,
		Seed:        7,
		FileSizes: []int64{
			13 << 10, 26 << 10, 45 << 10, 64 << 10,
			90 << 10, 115 << 10, 145 << 10, 176 << 10,
		},
	}
}

// SingleWebConfig models the unmodified ab workload the paper starts from
// (§5.2): every request hits the same single page, so the request stream
// "lacks diversity" — the baseline against which ab-rand and ab-seq add it.
func SingleWebConfig(requests int) WebConfig {
	cfg := DefaultWebConfig(false, requests)
	cfg.FileSizes = []int64{90 << 10}
	return cfg
}

// poison is the request metadata that tells a worker to shut down.
const poison = "__QUIT__"

// SetupWebServer installs the document tree, the access log, the listener,
// the server worker threads, and the ab traffic generator on k. Call before
// k.Run().
func SetupWebServer(k *kernel.Kernel, cfg WebConfig) {
	fs := k.FS()
	paths := make([]string, len(cfg.FileSizes))
	for i, sz := range cfg.FileSizes {
		paths[i] = fmt.Sprintf("/var/www/html/page%d.html", i)
		d := fs.MustCreate(paths[i], sz)
		// The paper measures after skipping the first 300 requests, by which
		// point the document set is page-cache resident; model that skipped
		// warm-up by pre-populating the cache.
		fs.WarmFile(d)
	}
	logDentry := fs.MustCreate("/var/log/httpd/access_log", 0)
	logDentry.Inode() // keep: created cold is fine; appends allocate pages
	listener := k.Net().NewListener()

	srv := &webServer{k: k, cfg: cfg, listener: listener, mutex: k.NewSemaphore()}
	code := machine.NewCodeMap(machine.UserCodeBase + 0x40000)
	srv.pcMain = code.Fn(2048)
	srv.pcParse = code.Fn(1024)
	srv.pcRespond = code.Fn(1536)

	for w := 0; w < cfg.Workers; w++ {
		t := k.Spawn(fmt.Sprintf("httpd-%d", w), srv.worker)
		t.SetEntry(srv.pcMain)
	}

	m := k.Machine()
	ab := &abClient{k: k, cfg: cfg, listener: listener, paths: paths,
		rng: rand.New(rand.NewSource(cfg.Seed)), workers: cfg.Workers}
	ab.buildOrder()
	ab.onPeerClose = ab.responseDone
	ab.opStart = m.RegisterOp(ab.start)
	ab.opConnect = m.RegisterOp(ab.connect)
	ab.opData = m.RegisterOp(ab.sendData)
	ab.opPoison = m.RegisterOp(ab.sendPoison)
	if cfg.Warmup > 0 {
		// The paper skips the first requests so that measurement (and the
		// acceleration scheme's learning) covers the warmed steady state.
		m.DeclareWarmup()
	}
	// Kick the client once the machine starts running.
	m.ScheduleOp(1, ab.opStart, 0, 0)
}

// webServer is the Apache-prefork-like server: workers serialize on a SysV
// accept mutex (sys_ipc), accept a connection, and serve one request per
// connection (the ab workloads are non-keepalive).
type webServer struct {
	k         *kernel.Kernel
	cfg       WebConfig
	listener  *kernel.Socket
	mutex     *kernel.Semaphore
	pcMain    uint64
	pcParse   uint64
	pcRespond uint64
}

func (s *webServer) worker(p *kernel.Proc) {
	lfd := p.InstallSocket(s.listener)
	logFd := p.Open("/var/log/httpd/access_log")
	buf := p.Scratch()
	for {
		// Each request replays the same handler text (I-cache locality).
		p.U.Call(s.pcMain)
		// Accept serialized by the SysV semaphore, like Apache prefork.
		p.Semop(s.mutex, true)
		cfd := p.Accept(lfd)
		p.Semop(s.mutex, false)

		conn := p.FileSock(cfd)
		p.Fcntl64(cfd) // O_NONBLOCK
		p.Gettimeofday()

		p.Poll(cfd)
		n := p.Read(cfd, buf, 4096)
		path, _ := conn.Meta.(string)
		if n == 0 || path == poison {
			p.Close(cfd)
			p.Close(logFd)
			p.U.Ret()
			return
		}

		// Parse the request line and headers.
		p.U.Call(s.pcParse)
		p.U.ScanLines(buf, (n+63)/64, 64)
		p.U.Mix(360)
		p.U.Ret()

		p.U.Call(s.pcRespond)
		if !p.Stat64(path) {
			// 404: short error response.
			p.U.Mix(120)
			p.Writev(cfd, buf, 512, 2)
		} else {
			ffd := p.Open(path)
			p.Fstat64(ffd)
			p.U.Mix(220) // build response headers
			first := true
			for {
				got := p.Read(ffd, buf, 32<<10)
				if got <= 0 {
					break
				}
				iov := 2
				if first {
					iov = 4 // headers + body brigade
					first = false
				}
				p.Writev(cfd, buf, got, iov)
			}
			p.Close(ffd)
		}
		p.U.Ret()

		// Access log line + timing.
		p.U.Mix(140)
		p.Gettimeofday()
		p.Write(logFd, buf, 96)
		p.Close(cfd)
		p.U.Ret()
	}
}

// abClient is the traffic generator modeling the paper's modified ab: it
// keeps cfg.Concurrency connections in flight; each connection issues one
// request and is closed by the server after the response. ab-rand picks a
// page uniformly at random per request; ab-seq walks the pages in increasing
// size order, sending an equal share of requests to each.
type abClient struct {
	k        *kernel.Kernel
	cfg      WebConfig
	listener *kernel.Socket
	paths    []string
	rng      *rand.Rand
	order    []int
	issued   int
	done     int
	workers  int
	poisoned bool

	// Client events are registered ops; a connection waiting for its
	// request data to be sent sits in conns, the payload naming its slot.
	opStart, opConnect, opData, opPoison machine.EventOp
	conns                                machine.Slab[*kernel.Socket]
	onPeerClose                          func() // responseDone, bound once
}

func (ab *abClient) buildOrder() {
	n := ab.cfg.Requests
	measured := make([]int, n)
	if ab.cfg.Sequential {
		// Equal shares per page, pages sorted by increasing size.
		share := (n + len(ab.paths) - 1) / len(ab.paths)
		for i := range measured {
			idx := i / share
			if idx >= len(ab.paths) {
				idx = len(ab.paths) - 1
			}
			measured[i] = idx
		}
	} else {
		for i := range measured {
			measured[i] = ab.rng.Intn(len(ab.paths))
		}
	}
	// Warm-up requests draw from the same distribution shape: random pages
	// for ab-rand; the smallest page for ab-seq, which is where its
	// ascending sequence starts anyway.
	warm := make([]int, ab.cfg.Warmup)
	for i := range warm {
		if !ab.cfg.Sequential {
			warm[i] = ab.rng.Intn(len(ab.paths))
		}
	}
	ab.order = append(warm, measured...)
}

func (ab *abClient) start(_, _ uint64) {
	for c := 0; c < ab.cfg.Concurrency; c++ {
		ab.connectNext(uint64(c) * 900)
	}
}

// connectNext opens the next connection after delay cycles of think time.
func (ab *abClient) connectNext(delay uint64) {
	if ab.issued >= len(ab.order) {
		ab.maybePoison()
		return
	}
	idx := ab.order[ab.issued]
	ab.issued++
	ab.k.Machine().ScheduleOpAfter(delay+1, ab.opConnect, uint64(idx), 0)
}

// connect opens a connection requesting page idx. The HTTP request arrives
// shortly after the connection.
func (ab *abClient) connect(idx, _ uint64) {
	conn := ab.k.Net().InjectConnect(ab.listener, nil, ab.onPeerClose)
	conn.Meta = ab.paths[idx]
	ab.k.Machine().ScheduleOpAfter(ab.k.Tunables().NetRTT/2, ab.opData, ab.conns.Put(conn), 230)
}

// sendData delivers nbytes of request data on the connection in slot.
func (ab *abClient) sendData(slot, nbytes uint64) {
	ab.k.Net().InjectData(ab.conns.Take(slot), int(nbytes))
}

// responseDone runs when the server closes a connection: the response is
// complete.
func (ab *abClient) responseDone() {
	ab.done++
	if ab.done == ab.cfg.Warmup {
		ab.k.Machine().Warm()
	}
	ab.connectNext(ab.thinkTime())
}

func (ab *abClient) thinkTime() uint64 {
	return uint64(ab.rng.Intn(2000)) + 200
}

// maybePoison shuts the workers down once every response has arrived.
func (ab *abClient) maybePoison() {
	if ab.poisoned || ab.done < len(ab.order) {
		return
	}
	ab.poisoned = true
	for w := 0; w < ab.workers; w++ {
		ab.k.Machine().ScheduleOpAfter(uint64(w)*500+1, ab.opPoison, 0, 0)
	}
}

// sendPoison opens one connection whose request tells a worker to exit.
func (ab *abClient) sendPoison(_, _ uint64) {
	conn := ab.k.Net().InjectConnect(ab.listener, nil, nil)
	conn.Meta = poison
	ab.k.Machine().ScheduleOpAfter(200, ab.opData, ab.conns.Put(conn), 16)
}

package kernel

import (
	"fssim/internal/isa"
	"fssim/internal/machine"
)

// Net is the simulated TCP/IP stack plus NIC. Guest threads use the socket
// system calls; the external world (web clients, an iperf sink) is modeled
// by host-side traffic generators that inject packets through the NIC, which
// raises IRQ 121 (the paper's Int_121) and processes them in a
// softirq-like receive path.
//
// Transmit flow control is TCP-like: each send occupies the link for a
// serialization delay and its in-flight bytes are acknowledged one RTT
// later; senders block when the send buffer fills, exactly the pattern that
// makes iperf's socket writes multi-modal.
type Net struct {
	k          *Kernel
	nextID     int
	linkFree   uint64
	rxPending  []rxWork
	ackPending []ackWork

	// Fault injection: noise is an internal socket unsolicited burst traffic
	// lands on (no guest reader ever drains it); while Now() < lossUntil,
	// transmitted segments take lossExtra additional cycles to arrive,
	// modeling a packet-loss/retransmission window.
	noise     *Socket
	lossUntil uint64
	lossExtra uint64

	// skb slab pool: payload copies rotate through this region the way real
	// kernels cycle through slab-allocated sk_buff data, giving the network
	// path a realistic (and cache-capacity-sensitive) working set.
	skbBase uint64
	skbSize uint64
	skbCur  uint64

	PacketsRx uint64
	BytesTx   uint64
	BytesRx   uint64

	// In-flight segment deliveries and peer-close notifications: the op
	// events' payload is a slot in these slabs, recycled as soon as the
	// event fires.
	deliveries machine.Slab[deliv]
	closing    machine.Slab[*Socket]
	opDeliver  machine.EventOp
	opClose    machine.EventOp
}

// deliv is one in-flight segment delivery awaiting its arrival event.
type deliv struct {
	sock  *Socket
	bytes int
}

// skbSlot returns the data area for the next nbytes of socket payload,
// advancing the rotating slab cursor.
func (n *Net) skbSlot(nbytes int) uint64 {
	sz := (uint64(nbytes) + 63) &^ 63
	if sz > n.skbSize {
		sz = n.skbSize
	}
	if n.skbCur+sz > n.skbSize {
		n.skbCur = 0
	}
	a := n.skbBase + n.skbCur
	n.skbCur += sz
	return a
}

type rxWork struct {
	conn  *Socket // new connection arriving at a listener
	sock  *Socket // data/FIN target
	bytes int
	fin   bool
}

type ackWork struct {
	sock  *Socket
	bytes int
}

// Socket is one endpoint visible to guest threads.
type Socket struct {
	net  *Net
	id   int
	addr uint64 // kernel sock struct
	buf  uint64 // skb data area

	listening bool
	acceptQ   []*Socket
	acceptWq  *WaitQueue

	rcvBytes  int
	rcvClosed bool
	rcvWq     *WaitQueue

	sndInFlight int
	sndBufMax   int
	sndWq       *WaitQueue

	closed  bool
	pollers []*WaitQueue

	// Meta carries traffic-model metadata alongside the simulated payload
	// (e.g. the requested URL), since payload bytes are not materialized.
	Meta interface{}

	// onDeliver is invoked (host-side, no simulated cost) when bytes sent by
	// the guest arrive at the external peer.
	onDeliver func(n int)
	// onPeerClose is invoked when the guest closes the socket, so external
	// traffic models can react (e.g. issue the next request).
	onPeerClose func()
}

func newNet(k *Kernel) *Net {
	// The slab arena sk_buff data rotates through is deliberately larger
	// than a 512KB L2 but close to the 1MB default: network payload is the
	// working set whose cache residency the L2 capacity studies exercise.
	const poolSize = 896 << 10
	return &Net{
		k:       k,
		skbBase: k.heap.AllocAligned(poolSize, 64),
		skbSize: poolSize,
	}
}

func (n *Net) newSocket() *Socket {
	n.nextID++
	return &Socket{
		net: n, id: n.nextID,
		addr:      n.k.heap.AllocAligned(640, 64),
		buf:       n.k.heap.AllocAligned(64<<10, 64),
		acceptWq:  n.k.NewWaitQueue(),
		rcvWq:     n.k.NewWaitQueue(),
		sndWq:     n.k.NewWaitQueue(),
		sndBufMax: 64 << 10,
	}
}

// NewListener creates a listening socket (setup-time host operation).
func (n *Net) NewListener() *Socket {
	s := n.newSocket()
	s.listening = true
	return s
}

// InstallSocket wraps a socket in a descriptor for p (host-side setup, e.g.
// a pre-opened listener inherited by a server).
func (p *Proc) InstallSocket(s *Socket) int {
	return p.installFd(&File{addr: p.k.heap.AllocAligned(192, 64), sock: s})
}

// FileSock returns the socket behind fd (nil for filesystem files).
func (p *Proc) FileSock(fd int) *Socket { return p.file(fd).sock }

// NewExternalConn creates a socket already connected to an external peer
// modeled by onDeliver (setup-time host operation; pair with Proc.Connect).
func (n *Net) NewExternalConn(onDeliver func(int)) *Socket {
	s := n.newSocket()
	s.onDeliver = onDeliver
	return s
}

// Connect performs the client-side connect path on a pre-built external
// socket and returns its descriptor (sys_socketcall).
func (p *Proc) Connect(s *Socket) int {
	p.enter(isa.SysSocketcall)
	e := p.k.e
	e.Mix(160) // socket() + tcp_v4_connect handshake bookkeeping
	e.Store(s.addr, 64)
	fd := p.installFd(&File{addr: p.k.heap.AllocAligned(192, 64), sock: s})
	if !p.k.appOnly() {
		p.k.SleepCycles(p.k.tun.NetRTT) // SYN/SYN-ACK round trip
	}
	p.exitSyscall()
	return fd
}

// notifyPollers wakes threads polling this socket.
func (s *Socket) notifyPollers() {
	for _, wq := range s.pollers {
		wq.WakeAll()
	}
	s.pollers = s.pollers[:0]
}

// --- External (traffic generator) side ------------------------------------

// InjectConnect delivers a connection request to listener l. It must be
// called from a machine event callback; the new connection's socket is
// returned so the traffic model can inject request data and receive
// deliveries via onDeliver.
func (n *Net) InjectConnect(l *Socket, onDeliver func(int), onPeerClose func()) *Socket {
	s := n.newSocket()
	s.onDeliver = onDeliver
	s.onPeerClose = onPeerClose
	n.rxPending = append(n.rxPending, rxWork{conn: s, sock: l})
	n.k.handleIRQ(isa.IrqNIC)
	return s
}

// InjectData delivers nbytes of payload to socket s (event callback context).
func (n *Net) InjectData(s *Socket, nbytes int) {
	n.rxPending = append(n.rxPending, rxWork{sock: s, bytes: nbytes})
	n.k.handleIRQ(isa.IrqNIC)
}

// InjectFIN delivers a peer close to socket s (event callback context).
func (n *Net) InjectFIN(s *Socket) {
	n.rxPending = append(n.rxPending, rxWork{sock: s, fin: true})
	n.k.handleIRQ(isa.IrqNIC)
}

// noiseSock lazily creates the internal socket fault-injected traffic lands
// on, so bursts exercise the full RX path without touching guest sockets.
func (n *Net) noiseSock() *Socket {
	if n.noise == nil {
		n.noise = n.newSocket()
	}
	return n.noise
}

// InjectNoise delivers nbytes of unsolicited inbound traffic (fault
// injection, event callback context): the NIC interrupt fires and the receive
// path runs per-MSS, but no guest thread is waiting on the data.
func (n *Net) InjectNoise(nbytes int) {
	s := n.noiseSock()
	s.rcvBytes = 0 // nothing drains the noise socket; don't accumulate
	n.InjectData(s, nbytes)
}

// InjectNoiseFIN runs the FIN receive path against the noise socket (fault
// injection): the close-processing branch of the NIC handler executes without
// tearing down any guest connection.
func (n *Net) InjectNoiseFIN() {
	s := n.noiseSock()
	s.rcvClosed = false // re-arm so every injection takes the FIN branch
	n.InjectFIN(s)
}

// SetLoss opens a packet-loss window: until cycle `until`, every transmitted
// segment arrives extra cycles late, modeling retransmission delay (fault
// injection). A later call extends or replaces the window.
func (n *Net) SetLoss(until, extra uint64) {
	n.lossUntil = until
	n.lossExtra = extra
}

// irqBody is the NIC interrupt handler: driver RX ring reaping, the
// netif_rx/TCP receive path for arrived packets, and TCP ACK processing for
// transmitted data. Path length scales with pending work, producing the
// multiple Int_121 behavior points seen in the paper's characterization.
func (n *Net) irqBody() {
	e := n.k.e
	e.Call(n.k.fn.netRx)
	e.Mix(20) // ring reap, napi poll entry
	for _, rx := range n.rxPending {
		n.PacketsRx++
		switch {
		case rx.conn != nil:
			// SYN: create the server-side sock, queue on the listener.
			e.Mix(90) // tcp_v4_syn_recv + sock alloc
			e.Store(rx.conn.addr, 64)
			l := rx.sock
			l.acceptQ = append(l.acceptQ, rx.conn)
			e.Store(l.addr+32, 8)
			l.acceptWq.WakeOne()
			l.notifyPollers()
		case rx.fin:
			e.Mix(40)
			rx.sock.rcvClosed = true
			e.Store(rx.sock.addr+40, 8)
			rx.sock.rcvWq.WakeAll()
			rx.sock.notifyPollers()
		default:
			n.BytesRx += uint64(rx.bytes)
			// Per-MSS receive processing into the socket backlog.
			mss := (rx.bytes + 1447) / 1448
			e.Mix(30 + 14*mss)
			e.Store(rx.sock.addr+48, 8)
			rx.sock.rcvBytes += rx.bytes
			rx.sock.rcvWq.WakeAll()
			rx.sock.notifyPollers()
		}
	}
	n.rxPending = n.rxPending[:0]
	for _, ack := range n.ackPending {
		e.Mix(36) // tcp_ack: clean retransmit queue, update cwnd
		e.Load(ack.sock.addr+56, 8, 1)
		ack.sock.sndInFlight -= ack.bytes
		if ack.sock.sndInFlight < 0 {
			ack.sock.sndInFlight = 0
		}
		ack.sock.sndWq.WakeAll()
	}
	n.ackPending = n.ackPending[:0]
	e.Ret()
}

// --- Guest (system call) side ----------------------------------------------

// acceptBody blocks until a connection is queued on listener s and returns
// the new connection socket.
func (n *Net) acceptBody(p *Proc, s *Socket) *Socket {
	e := n.k.e
	e.Load(s.addr+32, 8, 0)
	if len(s.acceptQ) == 0 {
		s.acceptWq.WaitFor(func() bool { return len(s.acceptQ) > 0 },
			func() { e.Mix(12) })
	}
	c := s.acceptQ[0]
	s.acceptQ = s.acceptQ[1:]
	e.Mix(70) // sock_graft + fd setup
	e.Load(c.addr, 64, 0)
	return c
}

// recvBody blocks until data (or FIN) is available and copies up to max
// bytes to the user buffer, returning the byte count (0 on peer close).
func (n *Net) recvBody(p *Proc, s *Socket, buf uint64, max int) int {
	e := n.k.e
	e.Call(n.k.fn.tcpRecvmsg)
	e.Load(s.addr, 8, 0)
	e.Ops(16)
	if s.rcvBytes == 0 && !s.rcvClosed {
		s.rcvWq.WaitFor(func() bool { return s.rcvBytes > 0 || s.rcvClosed },
			func() { e.Mix(14) }) // sk_wait_data
	}
	got := s.rcvBytes
	if got > max {
		got = max
	}
	if got > 0 {
		s.rcvBytes -= got
		p.touch(buf, got)
		e.CopyLines(buf, s.net.skbSlot(got), (got+63)/64)
		e.Mix(24) // skb free
	}
	e.Ret()
	return got
}

// sendBody transmits n bytes from the user buffer through the TCP send path:
// copy into socket buffers, per-MSS segmentation, link serialization, and
// window-limited blocking. Delivery to the external peer and the matching
// ACK are scheduled events.
func (n *Net) sendBody(p *Proc, s *Socket, buf uint64, nbytes int) {
	k := n.k
	e := k.e
	e.Call(k.fn.tcpSendmsg)
	e.Load(s.addr, 8, 0)
	e.Ops(18)
	remaining := nbytes
	src := buf
	for remaining > 0 {
		chunk := 16 << 10
		if chunk > remaining {
			chunk = remaining
		}
		if !k.appOnly() && s.sndInFlight+chunk > s.sndBufMax {
			need := chunk
			s.sndWq.WaitFor(func() bool { return s.sndInFlight+need <= s.sndBufMax },
				func() { e.Mix(16) }) // sk_stream_wait_memory
		}
		p.touch(src, chunk)
		e.CopyLines(n.skbSlot(chunk), src, (chunk+63)/64)
		mss := (chunk + 1447) / 1448
		e.Mix(10 * mss) // tcp_push: per-segment header build + xmit
		e.Store(s.addr+56, 8)
		s.sndInFlight += chunk
		n.BytesTx += uint64(chunk)

		// Link serialization + half-RTT propagation to the peer; the ACK
		// returns after the other half.
		var arrive uint64
		now := k.m.Now()
		if k.appOnly() {
			arrive = now + 1
		} else {
			ser := uint64(chunk) * k.tun.NetPerKB / 1024
			if n.linkFree < now {
				n.linkFree = now
			}
			n.linkFree += ser
			arrive = n.linkFree + k.tun.NetRTT/2
			if now < n.lossUntil {
				// Fault-injected loss window: the segment is retransmitted.
				arrive += n.lossExtra
			}
		}
		k.m.ScheduleOp(arrive, n.opDeliver, n.deliveries.Put(deliv{sock: s, bytes: chunk}), 0)
		src += uint64(chunk)
		remaining -= chunk
	}
	e.Ret()
}

// deliver is the segment-arrival op handler: hand the payload to the
// external peer, queue the ACK, and raise the NIC IRQ. The slab slot is
// recycled before the IRQ so a delivery that triggers more sends can reuse
// it immediately.
func (n *Net) deliver(a, _ uint64) {
	d := n.deliveries.Take(a)
	if d.sock.onDeliver != nil {
		d.sock.onDeliver(d.bytes)
	}
	n.ackPending = append(n.ackPending, ackWork{sock: d.sock, bytes: d.bytes})
	n.k.handleIRQ(isa.IrqNIC)
}

// closeSocket tears down s (called from sys_close) and notifies the external
// peer shortly afterward.
func (n *Net) closeSocket(s *Socket) {
	if s.closed {
		return
	}
	s.closed = true
	if s.onPeerClose != nil {
		delay := n.k.tun.NetRTT / 2
		if n.k.appOnly() {
			delay = 1
		}
		n.k.m.ScheduleOpAfter(delay, n.opClose, n.closing.Put(s), 0)
	}
}

// peerClosed is the op handler that tells the external peer a guest-closed
// socket is gone.
func (n *Net) peerClosed(a, _ uint64) { n.closing.Take(a).onPeerClose() }

// --- Socket system calls ---------------------------------------------------

// Accept accepts a connection on the listening descriptor (sys_socketcall).
func (p *Proc) Accept(fd int) int {
	p.enter(isa.SysSocketcall)
	f := p.file(fd)
	if f.sock == nil || !f.sock.listening {
		p.k.panicf("Accept on non-listening fd")
	}
	c := p.k.net.acceptBody(p, f.sock)
	nfd := p.installFd(&File{addr: p.k.heap.AllocAligned(192, 64), sock: c})
	p.exitSyscall()
	return nfd
}

// Recv receives up to max bytes (sys_socketcall).
func (p *Proc) Recv(fd int, buf uint64, max int) int {
	p.enter(isa.SysSocketcall)
	f := p.file(fd)
	got := p.k.net.recvBody(p, f.sock, buf, max)
	p.exitSyscall()
	return got
}

// Send transmits n bytes (sys_socketcall).
func (p *Proc) Send(fd int, buf uint64, nbytes int) {
	p.enter(isa.SysSocketcall)
	f := p.file(fd)
	p.k.net.sendBody(p, f.sock, buf, nbytes)
	p.exitSyscall()
}

// Writev transmits n bytes as iovcnt gathered segments (sys_writev) — the
// path web servers use for header+body responses.
func (p *Proc) Writev(fd int, buf uint64, nbytes, iovcnt int) {
	p.enter(isa.SysWritev)
	e := p.k.e
	f := p.file(fd)
	e.Ops(10 + 6*iovcnt) // iovec validation
	if f.sock != nil {
		p.k.net.sendBody(p, f.sock, buf, nbytes)
	} else {
		e.Call(p.k.fn.vfsWrite)
		p.k.fs.fileWriteBody(p, f, buf, nbytes)
		e.Ret()
	}
	p.exitSyscall()
}

// Poll blocks until one of the fds is ready (data, FIN, or a pending
// connection) and returns it (sys_poll).
func (p *Proc) Poll(fds ...int) int {
	p.enter(isa.SysPoll)
	e := p.k.e
	e.Call(p.k.fn.poll)
	sockReady := func(s *Socket) bool {
		return s == nil || s.rcvBytes > 0 || s.rcvClosed || len(s.acceptQ) > 0
	}
	readyFd := func() int {
		for _, fd := range fds {
			if sockReady(p.file(fd).sock) {
				return fd
			}
		}
		return -1
	}
	// scan emits the per-fd poll table walk and (re-)registers the poll wait
	// queue on every socket; notifyPollers clears registrations on each wake.
	wq := p.pollWq()
	scan := func() {
		for _, fd := range fds {
			f := p.file(fd)
			e.Load(f.addr, 8, 0)
			e.Ops(6)
			if s := f.sock; s != nil {
				e.Load(s.addr+48, 8, 1)
				s.pollers = append(s.pollers, wq)
				e.Ops(4)
			}
		}
		e.Mix(10)
	}
	scan()
	if readyFd() < 0 {
		wq.WaitFor(func() bool { return readyFd() >= 0 }, scan)
	}
	ready := readyFd()
	e.Ops(8)
	e.Ret()
	p.exitSyscall()
	return ready
}

// pollWq lazily allocates the per-process poll wait queue.
func (p *Proc) pollWq() *WaitQueue {
	if p.pollwq == nil {
		p.pollwq = p.k.NewWaitQueue()
	}
	return p.pollwq
}

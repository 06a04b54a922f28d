package kernel

import (
	"testing"

	"fssim/internal/machine"
)

func TestRecvReturnsZeroOnFIN(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	var got, afterFin int
	k.Spawn("server", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		cfd := p.Accept(lfd)
		got = p.Recv(cfd, p.Scratch(), 4096)
		afterFin = p.Recv(cfd, p.Scratch(), 4096) // FIN: returns 0
		p.Close(cfd)
	})
	var conn *Socket
	opData := m.RegisterOp(func(n, _ uint64) { k.Net().InjectData(conn, int(n)) })
	opFIN := m.RegisterOp(func(_, _ uint64) { k.Net().InjectFIN(conn) })
	m.ScheduleOp(100, m.RegisterOp(func(_, _ uint64) {
		conn = k.Net().InjectConnect(listener, nil, nil)
		m.ScheduleOpAfter(200, opData, 128, 0)
		m.ScheduleOpAfter(50_000, opFIN, 0, 0)
	}), 0, 0)
	k.Run()
	if got != 128 || afterFin != 0 {
		t.Fatalf("recv = %d then %d, want 128 then 0", got, afterFin)
	}
}

func TestRecvTruncatesToMax(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	var first, second int
	k.Spawn("server", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		cfd := p.Accept(lfd)
		first = p.Recv(cfd, p.Scratch(), 100)
		second = p.Recv(cfd, p.Scratch(), 4096)
		p.Close(cfd)
	})
	var conn *Socket
	opData := m.RegisterOp(func(n, _ uint64) { k.Net().InjectData(conn, int(n)) })
	m.ScheduleOp(100, m.RegisterOp(func(_, _ uint64) {
		conn = k.Net().InjectConnect(listener, nil, nil)
		m.ScheduleOpAfter(200, opData, 300, 0)
	}), 0, 0)
	k.Run()
	if first != 100 || second != 200 {
		t.Fatalf("recv = %d, %d; want 100, 200", first, second)
	}
}

func TestAcceptQueueOrdering(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	var order []string
	k.Spawn("server", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		for i := 0; i < 3; i++ {
			cfd := p.Accept(lfd)
			order = append(order, p.FileSock(cfd).Meta.(string))
			p.Close(cfd)
		}
	})
	names := []string{"a", "b", "c"}
	op := m.RegisterOp(func(i, _ uint64) {
		conn := k.Net().InjectConnect(listener, nil, nil)
		conn.Meta = names[i]
	})
	for i := range names {
		m.ScheduleOp(uint64(100+i*1000), op, uint64(i), 0)
	}
	k.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("accept order %v", order)
	}
}

func TestPeerCloseCallback(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	closed := false
	k.Spawn("server", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		cfd := p.Accept(lfd)
		p.Close(cfd)
		p.Nanosleep(100_000) // let the close notification fire
	})
	m.ScheduleOp(100, m.RegisterOp(func(_, _ uint64) {
		k.Net().InjectConnect(listener, nil, func() { closed = true })
	}), 0, 0)
	k.Run()
	if !closed {
		t.Fatal("onPeerClose never fired")
	}
}

func TestDoubleCloseSocketSafe(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	sock := k.Net().NewExternalConn(nil)
	k.Spawn("c", func(p *Proc) {
		fd := p.Connect(sock)
		fd2 := p.InstallSocket(sock) // second descriptor on the same socket
		p.Close(fd)
		p.Close(fd2) // must not double-notify or panic
	})
	k.Run()
}

func TestPollMultipleFds(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	l1 := k.Net().NewListener()
	l2 := k.Net().NewListener()
	ready := -1
	var fd1, fd2 int
	k.Spawn("poller", func(p *Proc) {
		fd1 = p.InstallSocket(l1)
		fd2 = p.InstallSocket(l2)
		ready = p.Poll(fd1, fd2)
	})
	// Only the second listener gets a connection.
	m.ScheduleOp(60_000, m.RegisterOp(func(_, _ uint64) { k.Net().InjectConnect(l2, nil, nil) }), 0, 0)
	k.Run()
	if ready != fd2 {
		t.Fatalf("poll returned %d, want %d (the ready fd)", ready, fd2)
	}
}

func TestSkbSlotRotation(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	n := k.Net()
	a := n.skbSlot(16 << 10)
	b := n.skbSlot(16 << 10)
	if a == b {
		t.Fatal("consecutive skb slots alias")
	}
	// The cursor wraps within the pool.
	for i := 0; i < 1000; i++ {
		s := n.skbSlot(16 << 10)
		if s < n.skbBase || s >= n.skbBase+n.skbSize {
			t.Fatalf("slot %#x outside pool", s)
		}
	}
}

func TestNetCounters(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	sink := 0
	sock := k.Net().NewExternalConn(func(n int) { sink += n })
	k.Spawn("c", func(p *Proc) {
		fd := p.Connect(sock)
		p.Send(fd, p.Scratch(), 32<<10)
		p.Nanosleep(64 * k.tun.NetPerKB)
		p.Close(fd)
	})
	k.Run()
	if k.Net().BytesTx != 32<<10 {
		t.Fatalf("BytesTx = %d", k.Net().BytesTx)
	}
	_ = m
}

package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/memsim"
)

func newTestKernel(mode machine.SimMode) (*machine.Machine, *Kernel) {
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	m := machine.New(cfg)
	k := New(m, DefaultTunables())
	return m, k
}

func TestSpawnAndRun(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	order := []int{}
	k.Spawn("a", func(p *Proc) {
		p.U.Ops(100)
		order = append(order, 1)
	})
	k.Spawn("b", func(p *Proc) {
		p.U.Ops(100)
		order = append(order, 2)
	})
	k.Run()
	if len(order) != 2 {
		t.Fatalf("threads run: %v", order)
	}
}

func TestNanosleepAdvancesTime(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	k.Spawn("sleeper", func(p *Proc) {
		p.U.Ops(10)
		p.Nanosleep(250_000)
		p.U.Ops(10)
	})
	k.Run()
	if m.Now() < 250_000 {
		t.Fatalf("nanosleep did not advance time: %d", m.Now())
	}
}

func TestTimerTicksAndPreemption(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	tun := DefaultTunables()
	tun.TimerPeriod = 40_000
	tun.Quantum = 2
	k := New(m, tun)
	// Two CPU-bound threads long enough to span several quanta.
	body := func(p *Proc) {
		p.U.Loop(40000, func(int) { p.U.Ops(31) })
	}
	k.Spawn("cpu1", body)
	k.Spawn("cpu2", body)
	k.Run()
	if k.Ticks() == 0 {
		t.Fatal("timer never fired")
	}
	if k.ContextSwitches() == 0 {
		t.Fatal("CPU-bound threads were never preempted")
	}
	st := m.Stats()
	if st.Intervals < k.Ticks() {
		t.Errorf("intervals %d < ticks %d", st.Intervals, k.Ticks())
	}
}

func TestFileReadWrite(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	k.FS().MustCreate("/data/file.bin", 10000)
	var got1, got2, got3 int
	k.Spawn("reader", func(p *Proc) {
		fd := p.Open("/data/file.bin")
		if fd < 0 {
			t.Error("open failed")
			return
		}
		got1 = p.Read(fd, p.Scratch(), 4096)
		got2 = p.Read(fd, p.Scratch(), 4096)
		got3 = p.Read(fd, p.Scratch(), 4096)
		if p.Read(fd, p.Scratch(), 4096) != 0 {
			t.Error("read past EOF returned data")
		}
		p.Close(fd)
	})
	k.Run()
	if got1 != 4096 || got2 != 4096 || got3 != 10000-8192 {
		t.Fatalf("reads = %d, %d, %d", got1, got2, got3)
	}
}

func TestPageCacheHitsAfterFirstRead(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	k.FS().MustCreate("/data/f", 32<<10)
	k.Spawn("r", func(p *Proc) {
		fd := p.Open("/data/f")
		for p.Read(fd, p.Scratch(), 8192) > 0 {
		}
		p.Close(fd)
		missesAfterFirst := k.FS().PageMisses
		fd = p.Open("/data/f")
		for p.Read(fd, p.Scratch(), 8192) > 0 {
		}
		p.Close(fd)
		if k.FS().PageMisses != missesAfterFirst {
			t.Errorf("second pass took %d extra page misses",
				k.FS().PageMisses-missesAfterFirst)
		}
		if k.FS().PageHits == 0 {
			t.Error("no page-cache hits recorded")
		}
	})
	k.Run()
}

func TestDiskIRQsOnColdReads(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	k.FS().MustCreate("/data/cold", 64<<10)
	sawDisk := false
	m.SetObserver(func(r machine.IntervalRecord) {
		if r.Service == isa.Irq(isa.IrqDisk) {
			sawDisk = true
		}
	})
	k.Spawn("r", func(p *Proc) {
		fd := p.Open("/data/cold")
		p.Read(fd, p.Scratch(), 4096)
		p.Close(fd)
	})
	k.Run()
	if k.disk.Requests == 0 {
		t.Fatal("no disk requests for cold file")
	}
	_ = sawDisk // the completion may fold into the blocked read interval
}

func TestLookupMissingFile(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	k.Spawn("r", func(p *Proc) {
		if p.Open("/no/such/file") >= 0 {
			t.Error("open of missing file succeeded")
		}
		if p.Stat64("/nope") {
			t.Error("stat of missing file succeeded")
		}
	})
	k.Run()
}

// TestPathWalk pins the component walk every VFS path operation uses:
// empty and "." components are skipped, ".." is kept, and the walk
// allocates nothing.
func TestPathWalk(t *testing.T) {
	walk := func(path string) (comps []string) {
		for c, i := nextComp(path, 0); c != ""; c, i = nextComp(path, i) {
			comps = append(comps, c)
		}
		return comps
	}
	for path, want := range map[string]string{
		"": "[]", "/": "[]", "//./": "[]", "a": "[a]", "/a": "[a]",
		"a/": "[a]", "/a//b/./c": "[a b c]", "../x/..": "[.. x ..]", "./.a/b.": "[.a b.]",
	} {
		if got := fmt.Sprint(walk(path)); got != want {
			t.Errorf("walk(%q) = %s, want %s", path, got, want)
		}
	}
	path, n := "/srv/www/htdocs/index.html", 0
	if allocs := testing.AllocsPerRun(10, func() {
		for c, i := nextComp(path, 0); c != ""; c, i = nextComp(path, i) {
			n++
		}
	}); allocs != 0 || n != 4*11 {
		t.Errorf("walking %s: %v allocations, %d components over 11 walks", path, allocs, n)
	}
	_, k := newTestKernel(machine.FullSystem)
	f := k.FS().MustCreate("//srv/./www/index.html", 10)
	if d := k.FS().MustMkdir("/srv/www/"); f.parent != d || d.parent.parent != k.FS().Root() {
		t.Errorf("MustCreate and MustMkdir disagree on /srv/www")
	}
}

func TestGetdentsAndChdir(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	for i := 0; i < 5; i++ {
		k.FS().MustCreate("/dir/sub/f"+string(rune('a'+i)), 100)
	}
	var names []string
	k.Spawn("ls", func(p *Proc) {
		if !p.Chdir("/dir/sub") {
			t.Error("chdir failed")
			return
		}
		fd := p.Open(".")
		for {
			ents := p.Getdents64(fd, p.Scratch(), 2)
			if len(ents) == 0 {
				break
			}
			for _, e := range ents {
				names = append(names, e.Name)
			}
		}
		p.Close(fd)
		p.Chdir("..")
		if p.Cwd() != "/dir" {
			t.Errorf("cwd = %q after ..", p.Cwd())
		}
	})
	k.Run()
	if len(names) != 5 {
		t.Fatalf("getdents returned %d entries", len(names))
	}
}

func TestDevNull(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	k.FS().MustDevNull("/dev/null")
	k.Spawn("w", func(p *Proc) {
		fd := p.Open("/dev/null")
		p.Write(fd, p.Scratch(), 100000)
		if p.Read(fd, p.Scratch(), 10) != 0 {
			t.Error("/dev/null read returned data")
		}
		p.Close(fd)
	})
	k.Run()
	if k.FS().Writebacks != 0 && len(k.FS().dirty) != 0 {
		t.Error("/dev/null writes dirtied pages")
	}
}

func TestSocketsEndToEnd(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	delivered := 0
	var got int
	k.Spawn("server", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		cfd := p.Accept(lfd)
		got = p.Read(cfd, p.Scratch(), 4096)
		p.Send(cfd, p.Scratch(), 20<<10)
		// Drain in-flight deliveries before the simulation ends.
		p.Nanosleep(40 * k.tun.NetPerKB)
		p.Close(cfd)
	})
	var conn *Socket
	opData := m.RegisterOp(func(n, _ uint64) { k.Net().InjectData(conn, int(n)) })
	m.ScheduleOp(100, m.RegisterOp(func(_, _ uint64) {
		conn = k.Net().InjectConnect(listener, func(n int) { delivered += n }, nil)
		m.ScheduleOpAfter(500, opData, 300, 0)
	}), 0, 0)
	k.Run()
	if got != 300 {
		t.Fatalf("server received %d bytes", got)
	}
	if delivered != 20<<10 {
		t.Fatalf("client received %d bytes", delivered)
	}
}

func TestSendWindowBlocks(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	received := 0
	sock := k.Net().NewExternalConn(func(n int) { received += n })
	start := uint64(0)
	k.Spawn("sender", func(p *Proc) {
		fd := p.Connect(sock)
		start = m.Now()
		// 256KB >> the 64KB send buffer: must block on the window.
		for i := 0; i < 32; i++ {
			p.Send(fd, p.Scratch(), 8<<10)
		}
		// Drain in-flight deliveries before the simulation ends.
		p.Nanosleep(64 * k.tun.NetPerKB * 3)
		p.Close(fd)
	})
	k.Run()
	if received != 256<<10 {
		t.Fatalf("sink received %d", received)
	}
	elapsed := m.Now() - start
	// At NetPerKB cycles/KB the link alone needs 256*NetPerKB cycles.
	if min := 256 * k.tun.NetPerKB; elapsed < min {
		t.Errorf("transfer took %d cycles, want >= link serialization %d", elapsed, min)
	}
}

func TestPollWakes(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	listener := k.Net().NewListener()
	polled := -1
	k.Spawn("poller", func(p *Proc) {
		lfd := p.InstallSocket(listener)
		polled = p.Poll(lfd)
	})
	m.ScheduleOp(50_000, m.RegisterOp(func(_, _ uint64) {
		k.Net().InjectConnect(listener, nil, nil)
	}), 0, 0)
	k.Run()
	if polled < 0 {
		t.Fatal("poll never returned ready")
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	sem := k.NewSemaphore()
	inside, maxInside := 0, 0
	body := func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Semop(sem, true)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.U.Ops(2000) // long enough for timer preemption attempts
			inside--
			p.Semop(sem, false)
			p.U.Ops(500)
		}
	}
	for i := 0; i < 3; i++ {
		k.Spawn("worker", body)
	}
	k.Run()
	if maxInside != 1 {
		t.Fatalf("semaphore admitted %d holders", maxInside)
	}
}

func TestPageFaultsOnHeap(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	faults := 0
	m.SetObserver(func(r machine.IntervalRecord) {
		if r.Service == isa.Exc(isa.ExcPageFault) {
			faults++
		}
	})
	var procFaults uint64
	k.Spawn("faulter", func(p *Proc) {
		base := p.Brk(64 << 10) // 16 pages
		for i := uint64(0); i < 16; i++ {
			p.U.Store(base+i*4096, 8)
		}
		// Second touch: no faults.
		for i := uint64(0); i < 16; i++ {
			p.U.Load(base+i*4096, 8, 0)
		}
		procFaults = p.Faults()
	})
	k.Run()
	if faults != 16 || procFaults != 16 {
		t.Fatalf("faults = %d (observer) / %d (proc), want 16", faults, procFaults)
	}
}

// TestPageFaultsMatchReference drives a random touch stream across heap
// growth — accesses that straddle page boundaries, start below the heap or
// reach at and past brk — and checks the page-presence bitmap against a map
// of faulted pages: Faults equals the map's size after every access, and a
// final sweep of the whole heap shows each page faulted exactly once.
func TestPageFaultsMatchReference(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	var err error
	k.Spawn("toucher", func(p *Proc) {
		rng := rand.New(rand.NewSource(3))
		ref := make(map[uint64]bool)
		for i := 0; i < 3000 && err == nil; i++ {
			switch i % 300 {
			case 0:
				p.Brk(1 + rng.Intn(40*memsim.PageSize))
			case 150:
				p.Mmap2(1 + rng.Intn(8*memsim.PageSize))
			}
			// From two pages below the heap to two pages past brk.
			addr := p.heapStart - 2*memsim.PageSize + uint64(rng.Int63n(int64(p.brk-p.heapStart+4*memsim.PageSize)))
			if rng.Intn(3) == 0 {
				addr = memsim.PageOf(addr) + memsim.PageSize - uint64(1+rng.Intn(8)) // straddles
			}
			size := []int{0, 1, 8, 64, memsim.PageSize, 3*memsim.PageSize + 100}[rng.Intn(6)]
			p.touch(addr, size)
			for pg := memsim.PageOf(addr); pg <= addr+uint64(max(size, 1))-1; pg += memsim.PageSize {
				if pg >= p.heapStart && pg < p.brk {
					ref[pg] = true
				}
			}
			if p.Faults() != uint64(len(ref)) {
				err = fmt.Errorf("access %d (%#x, %d): %d faults, reference %d", i, addr, size, p.Faults(), len(ref))
			}
		}
		pages := (p.brk - p.heapStart) / memsim.PageSize
		for sweep := 0; sweep < 2 && err == nil; sweep++ {
			p.touch(p.heapStart, int(p.brk-p.heapStart))
			if p.Faults() != pages {
				err = fmt.Errorf("sweep %d: %d faults over a %d-page heap (%d touched before)", sweep, p.Faults(), pages, len(ref))
			}
		}
		if err == nil && len(ref) == int(pages) {
			err = fmt.Errorf("stream touched all %d heap pages; the sweep checked nothing", pages)
		}
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloneWaitpidExit(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	childRan := false
	k.Spawn("parent", func(p *Proc) {
		child := p.Clone("child", func(cp *Proc) {
			cp.U.Ops(500)
			childRan = true
			cp.ExitGroup()
		})
		p.Waitpid(child)
		if !childRan {
			t.Error("waitpid returned before child exit")
		}
	})
	k.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestExecveReadsBinary(t *testing.T) {
	_, k := newTestKernel(machine.FullSystem)
	k.FS().MustCreate("/bin/tool", 16<<10)
	k.Spawn("execer", func(p *Proc) {
		p.Execve("/bin/tool")
	})
	k.Run()
	if k.FS().PageMisses == 0 {
		t.Fatal("execve read no binary pages")
	}
}

func TestAppOnlyNoTimer(t *testing.T) {
	_, k := newTestKernel(machine.AppOnly)
	k.Spawn("w", func(p *Proc) {
		p.U.Loop(10000, func(int) { p.U.Ops(31) })
	})
	k.Run()
	if k.Ticks() != 0 {
		t.Fatalf("timer ran %d times in App-Only mode", k.Ticks())
	}
}

func TestWriteDirtyAndFlush(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	tun := DefaultTunables()
	tun.TimerPeriod = 40_000 // fast ticks so the pdflush interval is reached
	k := New(m, tun)
	k.FS().MustCreate("/var/log/app.log", 0)
	k.Spawn("logger", func(p *Proc) {
		fd := p.Open("/var/log/app.log")
		for i := 0; i < 200; i++ {
			p.Write(fd, p.Scratch(), 256)
			p.U.Loop(800, func(int) { p.U.Ops(15) }) // let timer ticks pass
		}
		p.Close(fd)
	})
	k.Run()
	if k.FS().Writebacks == 0 {
		t.Fatal("periodic writeback never flushed dirty pages")
	}
}

func TestIntervalFoldingAcrossBlockedSyscall(t *testing.T) {
	m, k := newTestKernel(machine.FullSystem)
	k.FS().MustCreate("/data/big", 8<<10)
	types := map[isa.ServiceID]int{}
	m.SetObserver(func(r machine.IntervalRecord) { types[r.Service]++ })
	k.Spawn("r", func(p *Proc) {
		fd := p.Open("/data/big")
		p.Read(fd, p.Scratch(), 8<<10) // cold: blocks on the disk
		p.Close(fd)
	})
	k.Run()
	if types[isa.Sys(isa.SysRead)] == 0 {
		t.Fatal("no sys_read interval observed")
	}
}

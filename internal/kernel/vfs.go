package kernel

import (
	"strings"

	"fssim/internal/isa"
	"fssim/internal/memsim"
)

// FS is the simulated filesystem: a tree of dentries and inodes with a
// dentry cache and per-inode page caches backed by the block device. All
// metadata and page frames live at stable simulated kernel addresses, so
// walks and copies exercise the cache hierarchy realistically.
type FS struct {
	k       *Kernel
	root    *Dentry
	nextIno int

	// Counters for diagnostics and tests.
	DentryHits, DentryMisses uint64
	PageHits, PageMisses     uint64
	Writebacks               uint64

	dirty []*Page // pages awaiting writeback
}

// Inode is a file or directory.
type Inode struct {
	ino      int
	addr     uint64
	size     int64
	isDir    bool
	children []*Dentry
	pages    map[int64]*Page
	onDisk   bool // contents must be fetched from the block device
	devNull  bool // writes are discarded, reads return EOF
}

// Size returns the file size in bytes.
func (i *Inode) Size() int64 { return i.size }

// Page is a page-cache frame.
type Page struct {
	addr     uint64
	uptodate bool
	busy     bool
	dirty    bool
	wq       *WaitQueue
}

// Dentry is a directory entry in the simulated dcache.
type Dentry struct {
	name   string
	addr   uint64
	parent *Dentry
	inode  *Inode
	cached bool
}

// Name returns the entry's name.
func (d *Dentry) Name() string { return d.name }

// Inode returns the entry's inode.
func (d *Dentry) Inode() *Inode { return d.inode }

// IsDir reports whether the entry is a directory.
func (d *Dentry) IsDir() bool { return d.inode != nil && d.inode.isDir }

// Path returns the absolute path of the dentry.
func (d *Dentry) Path() string {
	if d.parent == nil {
		return "/"
	}
	pp := d.parent.Path()
	if pp == "/" {
		return "/" + d.name
	}
	return pp + "/" + d.name
}

// File is an open file description: a filesystem file or a socket.
type File struct {
	addr   uint64
	d      *Dentry
	sock   *Socket
	pos    int64
	dirIdx int
}

func newFS(k *Kernel) *FS {
	fs := &FS{k: k, nextIno: 1}
	fs.root = &Dentry{name: "/", addr: k.heap.AllocAligned(192, 64), cached: true}
	fs.root.inode = fs.newInode(true)
	return fs
}

func (fs *FS) newInode(isDir bool) *Inode {
	fs.nextIno++
	return &Inode{
		ino: fs.nextIno, addr: fs.k.heap.AllocAligned(576, 64),
		isDir: isDir, pages: make(map[int64]*Page),
	}
}

// Root returns the root dentry.
func (fs *FS) Root() *Dentry { return fs.root }

// --- Host-side tree construction (no simulated cost) ----------------------

// MustMkdir creates (or finds) the directory at path and returns its dentry.
// It is a setup-time host operation with no simulated cost.
func (fs *FS) MustMkdir(path string) *Dentry {
	d := fs.root
	for comp, i := nextComp(path, 0); comp != ""; comp, i = nextComp(path, i) {
		d = fs.mkdirIn(d, comp)
	}
	return d
}

// mkdirIn creates (or finds) directory name in d.
func (fs *FS) mkdirIn(d *Dentry, name string) *Dentry {
	child := d.find(name)
	if child == nil {
		child = fs.addChild(d, name, true, 0)
	}
	if !child.IsDir() {
		fs.k.panicf("MustMkdir: %q is a file", name)
	}
	return child
}

// MustCreate creates a regular file of the given size at path (creating
// parent directories) and returns its dentry. Contents start on disk: the
// first read of each page goes to the block device.
func (fs *FS) MustCreate(path string, size int64) *Dentry {
	name, i := nextComp(path, 0)
	if name == "" {
		fs.k.panicf("MustCreate: empty path")
	}
	dir := fs.root
	for next, j := nextComp(path, i); next != ""; next, j = nextComp(path, j) {
		dir, name = fs.mkdirIn(dir, name), next
	}
	if dir.find(name) != nil {
		fs.k.panicf("MustCreate: %q exists", path)
	}
	d := fs.addChild(dir, name, false, size)
	d.inode.onDisk = true
	return d
}

func (fs *FS) addChild(dir *Dentry, name string, isDir bool, size int64) *Dentry {
	d := &Dentry{
		name: name, addr: fs.k.heap.AllocAligned(192, 64),
		parent: dir, inode: fs.newInode(isDir),
	}
	d.inode.size = size
	d.inode.onDisk = true
	dir.inode.children = append(dir.inode.children, d)
	// Directory data grows one 64-byte on-disk record per entry, so a block
	// of 64 entries occupies one page that cold getdents/lookup must fetch.
	dir.inode.size += 64
	return d
}

// WarmFile marks every page of the file and its path's dentries as cached,
// modeling content that was served during a skipped warm-up phase (the
// paper skips the first 300 HTTP requests before measuring, by which point
// the document set is fully resident in the page cache).
func (fs *FS) WarmFile(d *Dentry) {
	for e := d; e != nil; e = e.parent {
		e.cached = true
	}
	i := d.inode
	pages := (i.size + memsim.PageSize - 1) / memsim.PageSize
	for idx := int64(0); idx < pages; idx++ {
		i.page(fs.k, idx).uptodate = true
	}
}

// DropCaches evicts every clean page-cache page backed by the block device
// and un-caches the dcache (the /proc/sys/vm/drop_caches analogue, used for
// fault injection): subsequent reads take the cold path — radix miss,
// ->readpage, disk I/O, blocking wait — and lookups re-read directory
// blocks. Busy (in-flight) and dirty pages are left alone, as are purely
// in-memory inodes. Returns the number of pages evicted.
func (fs *FS) DropCaches() int {
	n := 0
	var walk func(d *Dentry)
	walk = func(d *Dentry) {
		if d.parent != nil {
			d.cached = false
		}
		if i := d.inode; i != nil {
			if i.onDisk {
				for _, pg := range i.pages {
					if pg.uptodate && !pg.busy && !pg.dirty {
						pg.uptodate = false
						n++
					}
				}
			}
			for _, c := range i.children {
				walk(c)
			}
		}
	}
	walk(fs.root)
	return n
}

// MustDevNull creates a data-sink device node at path (writes discarded).
func (fs *FS) MustDevNull(path string) *Dentry {
	d := fs.MustCreate(path, 0)
	d.inode.devNull = true
	d.inode.onDisk = false
	return d
}

func (d *Dentry) find(name string) *Dentry {
	for _, c := range d.inode.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// nextComp returns the first component of path[i:] other than "" and ".",
// and the offset to continue from; comp is "" when none is left. Walking a
// path with it allocates nothing: components are substrings of path.
func nextComp(path string, i int) (comp string, next int) {
	for i < len(path) {
		j := strings.IndexByte(path[i:], '/')
		if j < 0 {
			j = len(path) - i
		}
		comp, i = path[i:i+j], i+j+1
		if comp != "" && comp != "." {
			return comp, i
		}
	}
	return "", i
}

// --- Page cache -----------------------------------------------------------

// page returns (allocating if needed) the page frame for index idx.
func (i *Inode) page(k *Kernel, idx int64) *Page {
	pg := i.pages[idx]
	if pg == nil {
		pg = &Page{addr: k.m.Lay.PageCache.AllocPage(), wq: k.NewWaitQueue()}
		if !i.onDisk {
			pg.uptodate = true
		}
		i.pages[idx] = pg
	}
	return pg
}

// flushDirty submits up to max dirty pages to the block device (the
// pdflush-style periodic writeback driven from the timer tick). Completion
// raises the disk interrupt but wakes no one.
func (fs *FS) flushDirty(max int) {
	if len(fs.dirty) == 0 {
		return
	}
	n := len(fs.dirty)
	if n > max {
		n = max
	}
	batch := fs.dirty[:n]
	fs.dirty = fs.dirty[n:]
	for _, pg := range batch {
		pg.dirty = false
	}
	fs.Writebacks += uint64(n)
	fs.k.disk.SubmitWrite(batch)
}

// radixWalk emits the page-cache radix-tree lookup for one page.
func (fs *FS) radixWalk(i *Inode) {
	e := fs.k.e
	e.Call(fs.k.fn.radixLookup)
	e.ChaseList([]uint64{i.addr + 64, i.addr + 128, i.addr + 192})
	e.Ops(5)
	e.Ret()
}

// readPages ensures pages [start, start+count) of inode i are uptodate,
// fetching missing ones from the block device (with readahead) and blocking
// until the I/O completes. It emits the corresponding kernel paths.
func (fs *FS) readPages(p *Proc, i *Inode, start int64, count int) {
	k := fs.k
	e := k.e
	maxPage := (i.size + memsim.PageSize - 1) / memsim.PageSize
	var submit []*Page
	end := start + int64(count)
	if end > maxPage {
		end = maxPage
	}
	for idx := start; idx < end; idx++ {
		fs.radixWalk(i)
		pg := i.page(k, idx)
		if pg.uptodate || pg.busy {
			if pg.uptodate {
				fs.PageHits++
			}
			continue
		}
		fs.PageMisses++
		// Allocate + insert: ->readpage path.
		e.Call(k.fn.readpage)
		e.Mix(26)
		e.Store(pg.addr, 8)
		e.Ret()
		pg.busy = true
		submit = append(submit, pg)
	}
	if len(submit) > 0 {
		// Readahead: extend the request window.
		ra := int64(k.tun.ReadaheadPages)
		for idx := end; idx < end+ra && idx < maxPage; idx++ {
			pg := i.page(k, idx)
			if !pg.uptodate && !pg.busy {
				pg.busy = true
				submit = append(submit, pg)
				e.Mix(12)
			}
		}
		k.disk.Submit(submit)
	}
	// Wait for the demand pages (not the readahead tail). The wait is a
	// lock_page-style re-check loop rather than a single sleep: DropCaches may
	// evict a page between its I/O completion and this thread resuming
	// (uptodate cleared, no I/O in flight), and a plain wait-for-uptodate
	// would then sleep forever. Waking on !busy lets the loop notice the
	// eviction and re-issue the read.
	for idx := start; idx < end; idx++ {
		pg := i.page(k, idx)
		for !pg.uptodate {
			if !pg.busy {
				// Evicted under us: re-run the ->readpage path.
				fs.PageMisses++
				e.Call(k.fn.readpage)
				e.Mix(26)
				e.Store(pg.addr, 8)
				e.Ret()
				pg.busy = true
				k.disk.Submit([]*Page{pg})
			}
			pg.wq.WaitFor(func() bool { return pg.uptodate || !pg.busy }, func() { e.Ops(8) })
		}
	}
}

// --- Path lookup ----------------------------------------------------------

// lookup resolves path relative to p's cwd (absolute paths from root),
// emitting the dcache walk; cold components read directory blocks from disk.
// Returns nil if a component is missing.
func (fs *FS) lookup(p *Proc, path string) *Dentry {
	k := fs.k
	e := k.e
	d := fs.root
	if !strings.HasPrefix(path, "/") {
		d = p.cwd
	}
	e.Call(k.fn.pathLookup)
	e.Ops(12)
	for comp, i := nextComp(path, 0); comp != ""; comp, i = nextComp(path, i) {
		if comp == ".." {
			e.Ops(6)
			if d.parent != nil {
				d = d.parent
			}
			continue
		}
		// Component hash + dcache hash-chain walk.
		e.Chain(4)
		e.ChaseList([]uint64{d.addr, d.addr + 64})
		child := d.find(comp)
		if child == nil {
			e.Mix(20) // negative lookup
			e.Ret()
			return nil
		}
		if !child.cached {
			fs.DentryMisses++
			// Cold dcache: read the directory block holding this entry.
			e.Call(k.fn.dcacheMiss)
			blk := int64(indexOf(d.inode.children, child) / 64)
			fs.readPages(p, d.inode, blk, 1)
			e.Mix(34) // d_alloc + d_add
			e.Ret()
			child.cached = true
		} else {
			fs.DentryHits++
			e.Load(child.addr, 8, 1)
			e.Ops(4)
		}
		e.Load(child.inode.addr, 8, 1)
		if more, _ := nextComp(path, i); more != "" {
			e.Ops(3)
		}
		d = child
	}
	e.Ret()
	return d
}

func indexOf(children []*Dentry, d *Dentry) int {
	for i, c := range children {
		if c == d {
			return i
		}
	}
	return 0
}

// --- File system calls ----------------------------------------------------

// Open opens path and returns a descriptor, or -1 if it does not exist.
func (p *Proc) Open(path string) int {
	p.enter(isa.SysOpen)
	e := p.k.e
	d := p.k.fs.lookup(p, path)
	fd := -1
	e.Call(p.k.fn.openPath)
	e.Mix(40) // get_unused_fd + file allocation
	if d != nil {
		f := &File{addr: p.k.heap.AllocAligned(192, 64), d: d}
		e.Store(f.addr, 64)
		e.Ops(8)
		fd = p.installFd(f)
	}
	e.Ret()
	p.exitSyscall()
	return fd
}

// Close closes a descriptor.
func (p *Proc) Close(fd int) {
	p.enter(isa.SysClose)
	e := p.k.e
	f := p.file(fd)
	e.Call(p.k.fn.closeFd)
	e.Load(f.addr, 8, 0)
	e.Mix(26) // fput / release path
	if f.sock != nil {
		p.k.net.closeSocket(f.sock)
		e.Mix(40)
	}
	e.Ret()
	delete(p.fds, fd)
	p.exitSyscall()
}

// Read reads up to n bytes from fd into the user buffer at buf, returning
// the number of bytes read (0 at EOF). Sockets take the tcp_recvmsg path
// (blocking until data arrives); files take the page-cache path.
func (p *Proc) Read(fd int, buf uint64, n int) int {
	p.enter(isa.SysRead)
	e := p.k.e
	f := p.file(fd)
	var got int
	if f.sock != nil {
		got = p.k.net.recvBody(p, f.sock, buf, n)
	} else {
		e.Call(p.k.fn.vfsRead)
		e.Load(f.addr, 8, 0)
		e.Ops(14)
		got = p.k.fs.fileReadBody(p, f, buf, n)
		e.Ret()
	}
	p.exitSyscall()
	return got
}

// fileReadBody performs the page-cache read loop for a regular file.
func (fs *FS) fileReadBody(p *Proc, f *File, buf uint64, n int) int {
	i := f.d.inode
	if i.devNull || f.pos >= i.size {
		return 0
	}
	if int64(n) > i.size-f.pos {
		n = int(i.size - f.pos)
	}
	start := f.pos / memsim.PageSize
	endPage := (f.pos + int64(n) - 1) / memsim.PageSize
	fs.readPages(p, i, start, int(endPage-start)+1)
	e := fs.k.e
	// Copy page-by-page to the user buffer.
	off := f.pos % memsim.PageSize
	remaining := int64(n)
	dst := buf
	for idx := start; idx <= endPage; idx++ {
		pg := i.page(fs.k, idx)
		chunk := memsim.PageSize - off
		if chunk > remaining {
			chunk = remaining
		}
		e.Call(fs.k.fn.copyUser)
		p.touch(dst, int(chunk))
		e.CopyLines(dst, pg.addr+uint64(off), int((chunk+63)/64))
		e.Ret()
		dst += uint64(chunk)
		remaining -= chunk
		off = 0
	}
	f.pos += int64(n)
	return n
}

// Write writes n bytes from the user buffer at buf to fd. Sockets take the
// tcp_sendmsg path; files append through the page cache (dirty pages are not
// written back — the simulated workloads never sync).
func (p *Proc) Write(fd int, buf uint64, n int) int {
	p.enter(isa.SysWrite)
	e := p.k.e
	f := p.file(fd)
	if f.sock != nil {
		p.k.net.sendBody(p, f.sock, buf, n)
	} else {
		e.Call(p.k.fn.vfsWrite)
		e.Load(f.addr, 8, 0)
		e.Ops(12)
		p.k.fs.fileWriteBody(p, f, buf, n)
		e.Ret()
	}
	p.exitSyscall()
	return n
}

// fileWriteBody appends data into the page cache.
func (fs *FS) fileWriteBody(p *Proc, f *File, buf uint64, n int) {
	i := f.d.inode
	e := fs.k.e
	if i.devNull {
		e.Ops(12) // null_write: validate and discard
		return
	}
	pos := f.pos
	remaining := int64(n)
	src := buf
	for remaining > 0 {
		idx := pos / memsim.PageSize
		off := pos % memsim.PageSize
		fs.radixWalk(i)
		pg := i.page(fs.k, idx)
		if !pg.uptodate {
			// Writing into a fresh page: no read-modify-write needed for the
			// append-only pattern our workloads use.
			pg.uptodate = true
			e.Mix(22)
		}
		chunk := memsim.PageSize - off
		if chunk > remaining {
			chunk = remaining
		}
		e.Call(fs.k.fn.copyUser)
		e.CopyLines(pg.addr+uint64(off), src, int((chunk+63)/64))
		e.Ret()
		if !pg.dirty {
			pg.dirty = true
			fs.dirty = append(fs.dirty, pg)
		}
		pos += chunk
		src += uint64(chunk)
		remaining -= chunk
	}
	f.pos = pos
	if pos > i.size {
		i.size = pos
	}
	e.Store(i.addr+16, 8)
}

// statBody emits the stat copy path for a resolved dentry.
func (p *Proc) statBody(d *Dentry) bool {
	e := p.k.e
	e.Call(p.k.fn.statPath)
	if d == nil {
		e.Mix(12)
		e.Ret()
		return false
	}
	e.Load(d.inode.addr, 8, 0)
	e.Load(d.inode.addr+64, 8, 0)
	e.Chain(5)
	e.Store(p.scratch, 64)
	e.Store(p.scratch+64, 32)
	e.Ops(10)
	e.Ret()
	return true
}

// Stat64 stats path, returning whether it exists.
func (p *Proc) Stat64(path string) bool {
	p.enter(isa.SysStat64)
	ok := p.statBody(p.k.fs.lookup(p, path))
	p.exitSyscall()
	return ok
}

// Lstat64 stats path without following symlinks (identical in this model).
func (p *Proc) Lstat64(path string) bool {
	p.enter(isa.SysLstat64)
	ok := p.statBody(p.k.fs.lookup(p, path))
	p.exitSyscall()
	return ok
}

// Fstat64 stats an open descriptor.
func (p *Proc) Fstat64(fd int) {
	p.enter(isa.SysFstat64)
	f := p.file(fd)
	var d *Dentry
	if f.sock == nil {
		d = f.d
	}
	if d != nil {
		p.statBody(d)
	} else {
		p.k.e.Mix(30)
	}
	p.exitSyscall()
}

// Dirent is one directory entry returned by Getdents64.
type Dirent struct {
	Name  string
	IsDir bool
	Size  int64
}

// Getdents64 reads up to max entries from an open directory, copying them to
// the user buffer at buf. Cold directories read their blocks from disk.
func (p *Proc) Getdents64(fd int, buf uint64, max int) []Dirent {
	p.enter(isa.SysGetdents64)
	e := p.k.e
	f := p.file(fd)
	e.Call(p.k.fn.getdents)
	e.Load(f.addr, 8, 0)
	e.Ops(16)
	var out []Dirent
	if f.d != nil && f.d.inode.isDir {
		kids := f.d.inode.children
		for len(out) < max && f.dirIdx < len(kids) {
			// Each 64-entry block of the directory is one on-disk page.
			if f.dirIdx%64 == 0 {
				p.k.fs.readPages(p, f.d.inode, int64(f.dirIdx/64), 1)
			}
			c := kids[f.dirIdx]
			e.Load(c.addr, 8, 1)
			e.Ops(6)
			p.touch(buf+uint64(len(out)*32), 32)
			e.Store(buf+uint64(len(out)*32), 32)
			out = append(out, Dirent{Name: c.name, IsDir: c.IsDir(), Size: c.inode.size})
			f.dirIdx++
			c.cached = true
		}
	}
	e.Ret()
	p.exitSyscall()
	return out
}

// Lseek repositions fd.
func (p *Proc) Lseek(fd int, pos int64) {
	p.enter(isa.SysLseek)
	f := p.file(fd)
	p.k.e.Ops(14)
	f.pos = pos
	p.exitSyscall()
}

// Chdir changes the working directory.
func (p *Proc) Chdir(path string) bool {
	p.enter(isa.SysChdir)
	d := p.k.fs.lookup(p, path)
	p.k.e.Mix(24)
	if d != nil && d.IsDir() {
		p.cwd = d
	}
	p.exitSyscall()
	return d != nil
}

// Fcntl64 performs a descriptor control operation (O_NONBLOCK toggles etc.).
func (p *Proc) Fcntl64(fd int) {
	p.enter(isa.SysFcntl64)
	e := p.k.e
	f := p.file(fd)
	e.Call(p.k.fn.fcntl)
	e.Load(f.addr, 8, 0)
	e.Chain(4)
	e.Store(f.addr+16, 8)
	e.Ops(8)
	e.Ret()
	p.exitSyscall()
}

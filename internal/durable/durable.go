// Package durable is the repo's single blessed path for crash-consistent
// writes. Every durable artifact — PLT snapshots, trace and metrics
// exports — goes through AtomicWrite/AtomicWriteFile, which implement the
// full discipline:
//
//	write temp → fsync(temp) → rename(temp, final) → fsync(dir)
//
// The file fsync makes the bytes durable before the name exists; the rename
// makes the name appear atomically; the directory fsync makes the rename
// itself durable. A crash at any point leaves either the old file (bit-exact)
// or the new file (bit-exact) at the final name, plus possibly an orphan temp
// that a recovery sweep can delete by prefix.
//
// The FS interface is the injection seam: production code uses OS(), tests
// use CrashFS, which records every durable operation and can replay any
// prefix of them — with the last unsynced write dropped, torn, or bit-flipped
// — to exhaustively enumerate what a real crash could leave on disk.
package durable

import (
	"fmt"
	"io"
	"path/filepath"
)

// TempPrefix is the name prefix for in-flight temp files created by
// AtomicWrite. Recovery sweeps delete files with this prefix; it matches the
// historical pltstore temp prefix so sweeps also clean orphans left behind by
// older builds.
const TempPrefix = ".plt-tmp-"

// File is the writable handle returned by FS.CreateTemp. Sync must not
// return until the written bytes are durable (for the OS implementation,
// fsync).
type File interface {
	io.Writer
	// Name returns the full path of the file.
	Name() string
	Sync() error
	Close() error
}

// DirEntry is a minimal directory listing entry.
type DirEntry struct {
	Name string // base name
	Dir  bool
	Size int64
}

// FS is the narrow filesystem surface the durable write path and the
// recovery sweep need. Implementations: OS() (real syscalls, real fsync) and
// NewCrashFS() (deterministic in-memory recorder for crash exploration).
type FS interface {
	MkdirAll(dir string) error
	// CreateTemp creates a new unique file in dir; pattern follows
	// os.CreateTemp semantics (a trailing or embedded "*" is replaced).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir makes a previous rename in dir durable. Implementations must
	// tolerate filesystems that cannot fsync directories.
	SyncDir(dir string) error
	ReadFile(path string) ([]byte, error)
	// ReadDir lists dir sorted by name. A missing dir returns fs.ErrNotExist.
	ReadDir(dir string) ([]DirEntry, error)
	Stat(path string) (DirEntry, error)
}

// AtomicWrite durably writes data to dir/name: temp file, fsync, rename,
// directory fsync. On any error the temp file is removed; the final name is
// never observable in a partial state.
func AtomicWrite(fsys FS, dir, name string, data []byte) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	f, err := fsys.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return fmt.Errorf("durable: creating temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	fail := func(stage string, err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: %s for %s: %w", stage, filepath.Join(dir, name), err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("writing temp", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing temp", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: closing temp for %s: %w", filepath.Join(dir, name), err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: publishing %s: %w", filepath.Join(dir, name), err)
	}
	return fsys.SyncDir(dir)
}

// AtomicWriteFile streams write into path with the same discipline as
// AtomicWrite. If write returns an error, the target path is untouched and
// the temp file is removed — a failed export never leaves a partial file
// that looks complete.
func AtomicWriteFile(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	f, err := fsys.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return fmt.Errorf("durable: creating temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	fail := func(stage string, err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: %s for %s: %w", stage, path, err)
	}
	if err := write(f); err != nil {
		return fail("writing", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: closing temp for %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: publishing %s: %w", path, err)
	}
	return fsys.SyncDir(dir)
}

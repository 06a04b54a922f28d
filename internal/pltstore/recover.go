package pltstore

import (
	"errors"
	iofs "io/fs"
	"path/filepath"
	"strings"

	"fssim/internal/durable"
)

// QuarantineDir is the subdirectory (under the store root) that Recover
// moves corrupt, torn, or transplanted snapshot files into. Quarantined
// files are out of every load path but preserved for forensics;
// nothing in the store ever reads them back.
const QuarantineDir = "quarantine"

// RecoveryReport summarizes what a startup Recover sweep found and fixed.
type RecoveryReport struct {
	// Orphans is the number of stale temp files deleted — in-flight writes
	// whose process died before the rename.
	Orphans int
	// Quarantined is the number of snapshot files moved to QuarantineDir
	// because they failed the recovery oracle: checksum-first decode,
	// filename-vs-header identity, and semantic state validation.
	Quarantined int
}

// isSnapshotName reports whether a directory entry name is a snapshot file.
func isSnapshotName(name string) bool { return strings.HasSuffix(name, ".plt") }

// Recover sweeps the store directory after a potential crash: orphan temp
// files are deleted, and every snapshot file is re-verified with the same
// oracle LoadPath uses — the size cap, the trailing checksum (verified
// before any field is parsed), the structural decode, the filename-vs-header
// identity check, and core's semantic validator. Files that fail are moved
// into QuarantineDir, never deleted and never importable; files that pass
// are untouched, bit-exact. Files that are neither temps nor snapshots are
// left alone.
//
// Temps owned by in-flight writers in this process are skipped; a temp
// owned by a writer in *another* process sharing the directory could be
// deleted, in which case that writer's rename fails cleanly (save error, no
// corruption) — the store is concurrency-safe within a process and
// crash-safe across them.
//
// Recover is idempotent and safe to call on a store that was shut down
// cleanly (it finds nothing to do). It is the store's only orphan sweep:
// callers that skip it keep per-file verification on every load, but
// nothing deletes stale temps or quarantines bad files.
func (s *Store) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return rep, nil
		}
		return rep, err
	}
	for _, e := range entries {
		if e.Dir {
			continue
		}
		p := filepath.Join(s.dir, e.Name)
		if strings.HasPrefix(e.Name, durable.TempPrefix) {
			if s.isLive(p) {
				continue
			}
			if s.fsys.Remove(p) == nil {
				rep.Orphans++
			}
			continue
		}
		if !isSnapshotName(e.Name) {
			continue // foreign files are left alone
		}
		if _, _, err := s.ReadPath(p); err != nil && s.quarantine(e.Name) {
			rep.Quarantined++
		}
	}
	return rep, nil
}

// quarantine moves one failed snapshot file out of the load path. Falls back
// to deletion if the move itself fails — a file that can be neither moved
// nor removed stays put and keeps failing Load's verification, which is safe
// (never imported), just unreported.
func (s *Store) quarantine(name string) bool {
	src := filepath.Join(s.dir, name)
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := s.fsys.MkdirAll(qdir); err == nil {
		if s.fsys.Rename(src, filepath.Join(qdir, name)) == nil {
			return true
		}
	}
	return s.fsys.Remove(src) == nil
}

// Package pltstore persists learned Performance Lookup Tables across runs:
// a versioned, self-describing on-disk store that snapshots an accelerated
// run's complete learner state (clusters with full moments, phases, outlier
// and watchdog bookkeeping) plus its deterministic machine statistics, and
// warm-starts later runs from it so the learning window is paid once per
// workload configuration instead of once per process.
//
// The store is config-addressed. Two FNV-1a hashes gate reuse:
//
//   - LearnHash fingerprints everything the learned state depends on —
//     benchmark, machine configuration (seed excluded), acceleration
//     parameters, workload scale, fault plan, transfer directive (if any)
//     and the format version. It is the filename discriminator and the
//     compatibility gate: a snapshot only ever loads into the configuration
//     that produced it. A mismatch is a cold start with a counted metric,
//     never a wrong prediction.
//   - ReplayHash additionally binds the exact run identity (the full RunKey
//     string, the derived machine seed and, for a transferred run, the
//     provenance hash of its donor). The key string is always
//     experiments.RunKey.String: every front-end — fsbench, fssimd and the
//     fssim library — saves and replays through the same key, so a snapshot
//     means the same run whoever wrote it. When the hash matches, the
//     snapshot's recorded machine.Stats are the byte-identical result of
//     re-running the simulation, so the outcome is reconstructed without
//     simulating at all; when only LearnHash matches, the run simulates (a
//     table learned under another seed reaches it only as a transfer donor).
//
// Loading is strictly validated: the binary codec (codec.go) rejects
// malformed bytes with a typed *FormatError, and the decoded learner state
// passes core.AccelState.Validate before it can reach an accelerator.
// Corrupt, truncated, or stale files therefore degrade to cold starts.
//
// Writes are crash-consistent: every file the store publishes goes through
// internal/durable's blessed path (temp → fsync → rename → dir fsync), so a
// crash at any instant leaves each address holding the old snapshot or the
// new one, bit-exact — never a torn file under a final name. What a crash
// can leave behind is an orphan temp or (on pathological storage) a torn or
// flipped file; Recover sweeps both at startup, deleting orphans and
// quarantining anything that fails the checksum/identity/validation oracle
// so it is never silently imported.
package pltstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"fssim/internal/core"
	"fssim/internal/durable"
	"fssim/internal/machine"
	"fssim/internal/transfer"
)

// FormatVersion is the snapshot format generation. It participates in
// LearnHash, so a format change invalidates every existing snapshot rather
// than misreading it. Version 2 added the transfer family/provenance trailer
// (Family, TransferHash, Coords) for cross-config warm starts.
const FormatVersion = 2

// ErrNotFound reports that no snapshot exists for the requested
// (benchmark, learn-hash) address.
var ErrNotFound = errors.New("pltstore: no snapshot for this configuration")

// ErrMismatch reports that a snapshot file's self-described identity does
// not match the address it was loaded under (a renamed or transplanted
// file). Callers treat it like corruption: cold start.
var ErrMismatch = errors.New("pltstore: snapshot does not match requested configuration")

// MaxSnapshotBytes caps how large a snapshot may be to load or travel
// between processes (client fetches). It is derived from the decoder's own
// structural caps: a snapshot near the learner/cluster/EPO limits is a few
// MB, so anything beyond this bound cannot be a snapshot the decoder would
// accept — it is rejected before buffering, not after.
const MaxSnapshotBytes = 16 << 20

// ErrOversize reports snapshot bytes beyond MaxSnapshotBytes: rejected
// before decoding.
var ErrOversize = errors.New("pltstore: snapshot exceeds size cap")

// FormatHash renders a hash the way snapshot filenames and provenance
// records carry it: 16 lowercase hex digits.
func FormatHash(h uint64) string { return fmt.Sprintf("%016x", h) }

// Snapshot is one persisted run: identity hashes, the run's deterministic
// aggregate statistics (for exact replay), and the full learner state (for
// warm-starting).
type Snapshot struct {
	LearnHash  uint64
	ReplayHash uint64

	// Family and Coords support cross-config transfer (internal/transfer):
	// Family addresses the sweep family (LearnHash minus the swept machine
	// parameters) and Coords are the swept coordinates themselves, so a
	// recipient config can find and rank eligible donors without decoding
	// machine configs. TransferHash is the provenance trailer: 0 for a
	// cold-learned snapshot, otherwise the hash of the donor and scaling
	// model this snapshot's run imported — transferred snapshots are never
	// donors themselves (no transfer chains).
	Family       uint64
	TransferHash uint64
	Coords       transfer.Coords

	Benchmark string
	Key       string // the producing RunKey, for diagnostics
	Stats     machine.Stats
	State     *core.AccelState
}

// Validate checks the snapshot beyond codec well-formedness: a benchmark
// name, a learner state that passes core's strict validation (finite
// non-negative centroids, bounded cluster counts, consistent rings), and
// non-degenerate statistics. Failures wrap core.ErrBadState or ErrMismatch
// so callers can count them as invalidations.
func (s *Snapshot) Validate() error {
	if s.Benchmark == "" {
		return fmt.Errorf("%w: empty benchmark", core.ErrBadState)
	}
	if s.State == nil {
		return fmt.Errorf("%w: missing learner state", core.ErrBadState)
	}
	if err := s.State.Validate(); err != nil {
		return err
	}
	if s.Stats.Insts == 0 || s.Stats.Cycles == 0 {
		return fmt.Errorf("%w: degenerate run statistics", core.ErrBadState)
	}
	c := s.Coords
	for _, v := range []int{
		c.L1ISize, c.L1IAssoc, c.L1DSize, c.L1DAssoc, c.L2Size, c.L2Assoc,
		c.FetchWidth, c.IssueWidth, c.RetireWidth, c.ROBSize,
		c.MemLatency, c.BusOccupancy,
	} {
		if v < 0 {
			return fmt.Errorf("%w: negative sweep coordinate %d", core.ErrBadState, v)
		}
	}
	return nil
}

// LearnHash fingerprints the configuration a learned PLT depends on. The
// machine seed is deliberately zeroed: learned behavior clusters transfer
// across seeds of the same configuration (that is the point of
// warm-starting), while exact result replay is separately gated by
// ReplayHash, which does bind the seed. A run with a transfer directive gets
// a distinct address, so a transferred table can never be mistaken for (or
// overwrite) the cold-learned table of the identical configuration — the
// donor's priors shape what is learned. An empty directive is a cold run.
func LearnHash(bench string, mcfg machine.Config, p core.Params, scale float64, faultPlan, transferSpec string) uint64 {
	mcfg.Seed = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-plt|v%d|bench=%s|scale=%x|faults=%s|machine=%+v|params=%+v",
		FormatVersion, bench, math.Float64bits(scale), faultPlan, mcfg, p)
	if transferSpec == "" {
		return h.Sum64()
	}
	base := h.Sum64()
	h.Reset()
	fmt.Fprintf(h, "fssim-plt-transfer|%016x|%s", base, transferSpec)
	return h.Sum64()
}

// ReplayHash binds a snapshot to one exact run: the learn-compatibility
// hash, the full run-key string, the derived machine seed and, for a
// transferred run, the TransferHash of the exact donor and scaling model it
// imported (0 = cold-learned, as in Snapshot.TransferHash). Two runs with
// equal ReplayHash are the same deterministic simulation, so the stored
// Stats are byte-identical to what re-running would produce. The "store"
// directive resolves to whatever donor the warm directory holds at run time,
// so binding the provenance means a snapshot recorded under one donor never
// replays for an invocation that would have resolved a different one.
func ReplayHash(learnHash uint64, key string, seed int64, transferHash uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-replay|%016x|%s|seed=%d", learnHash, key, seed)
	if transferHash != 0 {
		fmt.Fprintf(h, "|transfer=%016x", transferHash)
	}
	return h.Sum64()
}

// Store is a directory of snapshot files, one per (benchmark, learn-hash)
// address. The zero Store is unusable; build with Open (or OpenFS to inject
// a filesystem — tests use durable.CrashFS to explore crash states). A
// Store is safe for concurrent use: writes go through the durable atomic
// path and reads see either the old or the new complete snapshot.
type Store struct {
	dir  string
	fsys durable.FS

	// live tracks temp files owned by in-flight writers in this process so
	// Recover's orphan sweep never deletes a temp that is about to be
	// renamed.
	mu   sync.Mutex
	live map[string]bool
}

// Open returns a store rooted at dir, backed by the real filesystem. The
// directory is created lazily on first save, so opening a store never
// touches the filesystem; call Recover to run the startup sweep.
func Open(dir string) *Store { return OpenFS(dir, durable.OS()) }

// OpenFS returns a store rooted at dir on the given filesystem. Production
// callers use Open; tests inject a durable.CrashFS to enumerate what crashes
// can leave behind.
func OpenFS(dir string, fsys durable.FS) *Store {
	return &Store{dir: dir, fsys: fsys, live: map[string]bool{}}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the snapshot file path for the given address.
func (s *Store) Path(bench string, learnHash uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.plt", sanitize(bench), learnHash))
}

// sanitize maps a benchmark name onto the filename-safe alphabet; the
// snapshot header, not the filename, is the authoritative identity.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

// markLive records (or clears) in-process ownership of a temp file path.
func (s *Store) markLive(path string, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if live {
		s.live[path] = true
	} else {
		delete(s.live, path)
	}
}

func (s *Store) isLive(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live[path]
}

// trackFS wraps the store's filesystem so temp files created by the durable
// write path are registered in the live set for exactly the window between
// creation and publication (or cleanup).
type trackFS struct {
	durable.FS
	s *Store
}

func (t trackFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f, err := t.FS.CreateTemp(dir, pattern)
	if err == nil {
		t.s.markLive(f.Name(), true)
	}
	return f, err
}

func (t trackFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	if err == nil {
		t.s.markLive(oldpath, false)
	}
	return err
}

func (t trackFS) Remove(path string) error {
	err := t.FS.Remove(path)
	t.s.markLive(path, false)
	return err
}

func (s *Store) writeFS() durable.FS { return trackFS{FS: s.fsys, s: s} }

// Save writes the snapshot crash-consistently through the durable path:
// encoded to a temp file, fsync'd, renamed into place, directory fsync'd. A
// concurrent reader never observes a partial file, and a crash at any point
// leaves the address holding the previous snapshot or the new one bit-exact
// (plus at worst an orphan temp for the next Recover to delete).
func (s *Store) Save(snap *Snapshot) error {
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("pltstore: refusing to save: %w", err)
	}
	path := s.Path(snap.Benchmark, snap.LearnHash)
	if err := durable.AtomicWrite(s.writeFS(), s.dir, filepath.Base(path), Encode(snap)); err != nil {
		return fmt.Errorf("pltstore: %w", err)
	}
	return nil
}

// Load reads and fully validates the snapshot at the given address. It
// returns ErrNotFound when no file exists, a *FormatError for malformed or
// corrupt bytes, ErrMismatch for a file whose header identity disagrees with
// the address, and core.ErrBadState-wrapped errors for semantically invalid
// learner state. Only a nil error means the snapshot is safe to import.
func (s *Store) Load(bench string, learnHash uint64) (*Snapshot, error) {
	path := s.Path(bench, learnHash)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if snap.Benchmark != bench || snap.LearnHash != learnHash {
		return nil, fmt.Errorf("%w: file %s describes %s/%016x",
			ErrMismatch, filepath.Base(path), snap.Benchmark, snap.LearnHash)
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Donors loads the store's transfer donor set: every snapshot that decodes,
// validates and is cold-learned (TransferHash 0), in List order. Files that
// fail to load are skipped — a damaged snapshot never donates — and an
// unreadable directory has no donors, so every caller starts cold.
func (s *Store) Donors() []*Snapshot {
	paths, _ := s.List("")
	var donors []*Snapshot
	for _, p := range paths {
		if snap, err := s.LoadPath(p); err == nil && snap.TransferHash == 0 {
			donors = append(donors, snap)
		}
	}
	return donors
}

// Nearest returns the closest transfer-eligible donor for a recipient in the
// given sweep family: among donors whose Family matches, whose provenance is
// cold-learned (TransferHash 0 — transferred tables never donate, so priors
// cannot chain and compound model error), and whose coordinate distance to
// recip is within transfer.MaxDistance, it picks the minimum-distance one.
// Equally near donors resolve to the first in slice order, so a set in List
// (path) order resolves deterministically. Returns ErrNotFound when no
// eligible donor exists — callers count that as a rejected transfer and
// start cold.
func Nearest(donors []*Snapshot, family uint64, recip transfer.Coords) (*Snapshot, error) {
	var best *Snapshot
	bestDist := math.Inf(1)
	for _, snap := range donors {
		if snap.Family != family || snap.TransferHash != 0 {
			continue
		}
		if d := transfer.Distance(snap.Coords, recip); transfer.Eligible(d) && d < bestDist {
			best, bestDist = snap, d
		}
	}
	if best == nil {
		return nil, ErrNotFound
	}
	return best, nil
}

// DonorPrior turns a donor snapshot into the rescaled prior a recipient at
// coordinates recip imports under params target, plus the provenance the
// recipient records: the donor's address, its distance, the fitted model's
// headline scale, and the TransferHash that binds the recipient's replay
// address. A donor beyond transfer.MaxDistance, or one whose state does not
// survive rescaling, is an error and the recipient starts cold.
func DonorPrior(donor *Snapshot, recip transfer.Coords, target core.Params) (*core.AccelState, *transfer.Provenance, error) {
	dist := transfer.Distance(donor.Coords, recip)
	if !transfer.Eligible(dist) {
		return nil, nil, fmt.Errorf("pltstore: donor %s at distance %g is beyond the transfer cutoff %g",
			donor.Benchmark, dist, transfer.MaxDistance)
	}
	model := transfer.FitAnalytic(donor.Coords, recip)
	prior, err := transfer.Rescale(donor.State, model, target)
	if err != nil {
		return nil, nil, err
	}
	return prior, &transfer.Provenance{
		DonorBench: donor.Benchmark,
		DonorAddr:  FormatHash(donor.Family) + "/" + FormatHash(donor.LearnHash),
		Distance:   dist,
		Scale:      model.L2M,
		Hash:       transfer.TransferHash(donor.LearnHash, model),
	}, nil
}

// LoadPath reads and fully validates the snapshot at an explicit store path
// (as returned by List), with the same guarantees as Load: size cap,
// checksum-first structural decode, semantic validation, and the transplant
// check that the filename agrees with the self-described identity. Only a
// nil error means the snapshot is safe to import.
func (s *Store) LoadPath(path string) (*Snapshot, error) {
	_, snap, err := s.ReadPath(path)
	return snap, err
}

// ReadPath is LoadPath that also returns the file's bytes, for callers that
// ship a snapshot verbatim: the bytes returned are exactly the bytes
// verified. Recover quarantines every snapshot file it rejects.
func (s *Store) ReadPath(path string) ([]byte, *Snapshot, error) {
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, fmt.Errorf("pltstore: %w", err)
	}
	if int64(len(data)) > MaxSnapshotBytes {
		return nil, nil, fmt.Errorf("%w: %d bytes > %d", ErrOversize, len(data), MaxSnapshotBytes)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, nil, err
	}
	if s.Path(snap.Benchmark, snap.LearnHash) != path {
		return nil, nil, fmt.Errorf("%w: file %s describes %s/%016x",
			ErrMismatch, filepath.Base(path), snap.Benchmark, snap.LearnHash)
	}
	if err := snap.Validate(); err != nil {
		return nil, nil, err
	}
	return data, snap, nil
}

// List returns the snapshot file paths currently stored for bench (every
// benchmark when bench is empty), sorted by name for determinism. Only names
// of the exact form Path produces, <sanitized bench>-<16 hex>.plt, count: a
// benchmark whose name extends bench ("ab-rand" for "ab") is not bench's. A
// missing store directory is an empty store, not an error.
func (s *Store) List(bench string) ([]string, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.Dir {
			continue
		}
		if b, ok := snapshotBench(e.Name); ok && (bench == "" || b == sanitize(bench)) {
			out = append(out, filepath.Join(s.dir, e.Name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// snapshotBench splits a snapshot filename of the form Path produces into
// its sanitized benchmark part; ok is false for any other name.
func snapshotBench(name string) (bench string, ok bool) {
	const hashLen = 16
	stem, isPLT := strings.CutSuffix(name, ".plt")
	i := len(stem) - hashLen - 1
	if !isPLT || i < 1 || stem[i] != '-' {
		return "", false
	}
	for _, c := range stem[i+1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return stem[:i], true
}

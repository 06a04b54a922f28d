package pltstore

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
)

// richAccelState drives an accelerator through a deterministic mixed
// workload via its public sink interface, so the exported state populates
// every snapshot field: several services in different phases, clusters with
// real moments, outlier entries, and a live watchdog ring.
func richAccelState() *core.AccelState {
	p := core.DefaultParams()
	p.LearnWindow = 12
	p.WarmupSkip = 2
	p.WatchdogThreshold = 0.6
	p.WatchdogWindow = 8
	a := core.NewAccelerator(p)
	svcs := []isa.ServiceID{isa.Sys(isa.SysRead), isa.Sys(isa.SysWrite), isa.Sys(isa.SysOpen)}
	bases := []uint64{1000, 4000, 250}
	for step := 0; step < 500; step++ {
		i := step % len(svcs)
		insts := bases[i] + uint64(step%7)
		if step%23 == 0 {
			insts = bases[i]*3 + uint64(step)
		}
		svc := svcs[i]
		sig := machine.Signature{Insts: insts, Loads: insts / 4, Stores: insts / 8, Branches: insts / 5}
		detailed, _ := a.OnServiceStart(svc)
		if detailed {
			a.OnServiceEnd(svc, sig, &machine.Measurement{Insts: insts, Cycles: insts * 5})
		} else {
			a.OnServiceEnd(svc, sig, nil)
		}
	}
	return a.Export()
}

func richSnapshot() *Snapshot {
	st := richAccelState()
	lh := LearnHash("fig1-lmbench", machine.Config{}, st.Params, 0.1, "", "")
	return &Snapshot{
		LearnHash:  lh,
		ReplayHash: ReplayHash(lh, "fig1-lmbench/accel/L2=1048576/scale=0.1", 42, 0),
		Benchmark:  "fig1-lmbench",
		Key:        "fig1-lmbench/accel/L2=1048576/scale=0.1",
		Stats: machine.Stats{
			Cycles: 123456789, Insts: 87654321, UserInsts: 70000000, OSInsts: 17654321,
			Intervals: 4242, Emulated: 3000, EmuInsts: 9999999, PredCycles: 22222222,
			DRAM: 1234, BrLookups: 555, BrMispreds: 44,
		},
		State: st,
	}
}

// TestEncodeDecodeRoundTrip is the codec's core contract: decode(encode(x))
// reproduces x exactly, and re-encoding reproduces the exact bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := richSnapshot()
	data := Encode(snap)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("decoded snapshot differs:\n got %+v\nwant %+v", got, snap)
	}
	if again := Encode(got); !bytes.Equal(data, again) {
		t.Errorf("re-encode is not byte-identical: %d vs %d bytes", len(again), len(data))
	}
	// Encode leaves its input as it was, an empty non-nil list included.
	in, want := richSnapshot(), richSnapshot()
	in.State.Learners[0].Outliers = []core.OutlierState{}
	want.State.Learners[0].Outliers = []core.OutlierState{}
	Encode(in)
	if !reflect.DeepEqual(in, want) {
		t.Error("Encode modified the snapshot it encoded")
	}
}

// TestStoreRoundTrip covers the full save/load path through the filesystem,
// including the not-found case for an address that was never saved.
func TestStoreRoundTrip(t *testing.T) {
	s := Open(filepath.Join(t.TempDir(), "warm"))
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := s.Load(snap.Benchmark, snap.LearnHash)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Error("loaded snapshot differs from saved")
	}
	if _, err := s.Load(snap.Benchmark, snap.LearnHash+1); !errors.Is(err, ErrNotFound) {
		t.Errorf("load of unsaved address = %v, want ErrNotFound", err)
	}
	if _, err := s.Load("other-bench", snap.LearnHash); !errors.Is(err, ErrNotFound) {
		t.Errorf("load of unsaved benchmark = %v, want ErrNotFound", err)
	}
}

// TestStoreSaveIsAtomic asserts no temp debris survives a successful save
// and that saving over an existing snapshot replaces it completely.
func TestStoreSaveIsAtomic(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	snap.Stats.Cycles++
	snap.ReplayHash++
	if err := s.Save(snap); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// The quarantine dir is the only non-snapshot resident the store is
		// allowed to maintain.
		if e.Name() == QuarantineDir {
			continue
		}
		if !strings.HasSuffix(e.Name(), ".plt") {
			t.Errorf("stray file %q left in store", e.Name())
		}
	}
	got, err := s.Load(snap.Benchmark, snap.LearnHash)
	if err != nil {
		t.Fatalf("load after re-save: %v", err)
	}
	if got.Stats.Cycles != snap.Stats.Cycles {
		t.Error("re-save did not replace the snapshot")
	}
}

// TestLoadCorrupt flips every byte of a valid snapshot file, one at a time,
// and requires each corruption to be detected (no panic, always an error —
// the checksum guarantees single-byte damage cannot pass).
func TestLoadCorrupt(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := s.Path(snap.Benchmark, snap.LearnHash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(data) > 4096 {
		stride = len(data) / 4096
	}
	for off := 0; off < len(data); off += stride {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0xff
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s.Load(snap.Benchmark, snap.LearnHash)
		if err == nil {
			t.Fatalf("byte %d: corrupt snapshot loaded without error", off)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("byte %d: error %v is not a *FormatError", off, err)
		}
	}
}

// TestLoadTruncated requires every proper prefix of a snapshot to fail with
// a typed format error rather than a panic or a partial result.
func TestLoadTruncated(t *testing.T) {
	data := Encode(richSnapshot())
	stride := 1
	if len(data) > 2048 {
		stride = len(data) / 2048
	}
	for n := 0; n < len(data); n += stride {
		snap, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("prefix %d: error %v is not a *FormatError", n, err)
		}
		if snap != nil {
			t.Fatalf("prefix %d: decode returned a partial snapshot alongside an error", n)
		}
	}
}

// TestLoadMismatch covers a transplanted file: valid bytes at an address
// whose (benchmark, hash) identity they do not describe.
func TestLoadMismatch(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	src := s.Path(snap.Benchmark, snap.LearnHash)
	if err := os.Rename(src, s.Path(snap.Benchmark, snap.LearnHash+7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(snap.Benchmark, snap.LearnHash+7); !errors.Is(err, ErrMismatch) {
		t.Errorf("load of transplanted file = %v, want ErrMismatch", err)
	}
	data, err := os.ReadFile(s.Path(snap.Benchmark, snap.LearnHash+7))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path("imposter", snap.LearnHash), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("imposter", snap.LearnHash); !errors.Is(err, ErrMismatch) {
		t.Errorf("load under wrong benchmark = %v, want ErrMismatch", err)
	}
}

// TestSaveRejectsInvalid: semantically invalid state (the kind core.Import
// would refuse) never reaches disk.
func TestSaveRejectsInvalid(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	snap.State.Learners[0].Table.Clusters[0].Centroid = math.NaN()
	if err := s.Save(snap); err == nil || !errors.Is(err, core.ErrBadState) {
		t.Errorf("save of invalid state = %v, want ErrBadState", err)
	}
	if paths, _ := s.List(""); len(paths) != 0 {
		t.Errorf("rejected save left %d files in the store", len(paths))
	}
}

// TestLoadRejectsSemanticCorruption: a snapshot whose bytes are well-formed
// (checksum intact) but whose learner state is invalid must still be
// rejected, via core's validator.
func TestLoadRejectsSemanticCorruption(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Re-encode with a poisoned centroid, bypassing Save's validation.
	bad := richSnapshot()
	bad.State.Learners[0].Table.Clusters[0].Centroid = -1
	if err := os.WriteFile(s.Path(snap.Benchmark, snap.LearnHash), Encode(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(snap.Benchmark, snap.LearnHash); !errors.Is(err, core.ErrBadState) {
		t.Errorf("load of semantically corrupt snapshot = %v, want ErrBadState", err)
	}
}

// TestDecodedStateImports closes the loop with core: a decoded snapshot's
// state imports into a fresh accelerator and re-exports identically.
func TestDecodedStateImports(t *testing.T) {
	snap := richSnapshot()
	got, err := Decode(Encode(snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	a := core.NewAccelerator(got.State.Params)
	if err := a.Import(got.State); err != nil {
		t.Fatalf("import of decoded state: %v", err)
	}
	if !reflect.DeepEqual(a.Export(), snap.State) {
		t.Error("decoded state does not re-export identically after import")
	}
}

// TestLearnHash pins the invalidation semantics: any configuration change
// moves the address; the machine seed alone does not (that is ReplayHash's
// job).
func TestLearnHash(t *testing.T) {
	mcfg := machine.Config{Mode: 1, WithCaches: true, Seed: 7}
	p := core.DefaultParams()
	base := LearnHash("bench", mcfg, p, 0.1, "", "")
	if LearnHash("bench", mcfg, p, 0.1, "", "") != base {
		t.Error("LearnHash is not deterministic")
	}
	reseeded := mcfg
	reseeded.Seed = 99
	if LearnHash("bench", reseeded, p, 0.1, "", "") != base {
		t.Error("machine seed changed LearnHash; learned state transfers across seeds")
	}
	variants := map[string]uint64{
		"benchmark": LearnHash("other", mcfg, p, 0.1, "", ""),
		"scale":     LearnHash("bench", mcfg, p, 0.2, "", ""),
		"faults":    LearnHash("bench", mcfg, p, 0.1, "flip@3", ""),
	}
	altCfg := mcfg
	altCfg.WithCaches = false
	variants["machine"] = LearnHash("bench", altCfg, p, 0.1, "", "")
	altP := p
	altP.LearnWindow = 33
	variants["params"] = LearnHash("bench", mcfg, altP, 0.1, "", "")
	for name, h := range variants {
		if h == base {
			t.Errorf("changing %s did not change LearnHash", name)
		}
	}
	// ReplayHash, by contrast, binds seed and key.
	r := ReplayHash(base, "k", 1, 0)
	if ReplayHash(base, "k", 2, 0) == r || ReplayHash(base, "k2", 1, 0) == r || ReplayHash(base+1, "k", 1, 0) == r {
		t.Error("ReplayHash ignored part of the run identity")
	}
}

// TestList covers benchmark filtering, deterministic order, and the
// missing-directory case. Filtering is by exact benchmark: "ab" must not
// match "ab-rand", and files not named like snapshots are not listed.
func TestList(t *testing.T) {
	s := Open(filepath.Join(t.TempDir(), "never-created"))
	if paths, err := s.List(""); err != nil || paths != nil {
		t.Errorf("List on missing dir = (%v, %v), want (nil, nil)", paths, err)
	}
	s = Open(t.TempDir())
	a := richSnapshot()
	b := richSnapshot()
	b.Benchmark = "zz-other"
	b.LearnHash++
	for _, snap := range []*Snapshot{a, b} {
		if err := s.Save(snap); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	all, err := s.List("")
	if err != nil || len(all) != 2 {
		t.Fatalf("List(\"\") = (%v, %v), want 2 paths", all, err)
	}
	only, err := s.List("zz-other")
	if err != nil || len(only) != 1 || !strings.Contains(only[0], "zz-other") {
		t.Errorf("List(zz-other) = (%v, %v), want the one matching path", only, err)
	}

	s = Open(t.TempDir())
	ab := richSnapshot()
	ab.Benchmark = "ab-rand"
	if err := s.Save(ab); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, name := range []string{"ab-junk.plt", "ab-0123456789ABCDEF.plt", "-0123456789abcdef.plt"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if paths, err := s.List("ab"); err != nil || len(paths) != 0 {
		t.Errorf("List(ab) = (%v, %v), want nothing: ab-rand is another benchmark", paths, err)
	}
	if paths, err := s.List("ab-rand"); err != nil || len(paths) != 1 || paths[0] != s.Path(ab.Benchmark, ab.LearnHash) {
		t.Errorf("List(ab-rand) = (%v, %v), want the one ab-rand snapshot", paths, err)
	}
	if paths, err := s.List(""); err != nil || len(paths) != 1 {
		t.Errorf("List(\"\") = (%v, %v), want only the well-named snapshot", paths, err)
	}
}

// TestSanitizedFilenames: hostile benchmark names cannot escape the store
// directory, and identity still verifies through the header.
func TestSanitizedFilenames(t *testing.T) {
	s := Open(t.TempDir())
	snap := richSnapshot()
	snap.Benchmark = "../evil/bench name"
	snap.ReplayHash = ReplayHash(snap.LearnHash, snap.Key, 42, 0)
	if err := s.Save(snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := s.Path(snap.Benchmark, snap.LearnHash)
	if filepath.Dir(path) != s.Dir() {
		t.Fatalf("sanitized path %q escapes the store directory", path)
	}
	got, err := s.Load(snap.Benchmark, snap.LearnHash)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Benchmark != snap.Benchmark {
		t.Errorf("benchmark %q lost through sanitized filename", got.Benchmark)
	}
}

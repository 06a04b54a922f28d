package pltstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fssim/internal/durable"
	"fssim/internal/machine"
)

// snapFor builds a deterministic rich snapshot addressed to bench.
func snapFor(bench string, bump uint64) *Snapshot {
	st := richAccelState()
	lh := LearnHash(bench, machine.Config{}, st.Params, 0.1, "", "")
	return &Snapshot{
		LearnHash:  lh,
		ReplayHash: ReplayHash(lh, bench+"/accel", 42, 0) + bump,
		Benchmark:  bench,
		Key:        bench + "/accel",
		Stats:      richSnapshot().Stats,
		State:      st,
	}
}

// allowedContent lists what a store address may hold after crash recovery:
// any of the byte strings, or absent when absentOK.
type allowedContent struct {
	bench    string
	hash     uint64
	variants [][]byte
	absentOK bool
}

// checkRecovered opens a materialized crash state with the real filesystem,
// runs the recovery sweep, and asserts the invariant: every address holds
// one of its allowed contents bit-exact (or is absent where allowed), no
// temp files survive, and List returns exactly the valid residents.
func checkRecovered(p durable.CrashPoint, dir string, allowed []allowedContent) error {
	rs := Open(dir)
	if _, err := rs.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	valid := 0
	for _, a := range allowed {
		path := rs.Path(a.bench, a.hash)
		got, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) && a.absentOK {
				continue
			}
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		match := false
		for _, want := range a.variants {
			if bytes.Equal(got, want) {
				match = true
				break
			}
		}
		if !match {
			return fmt.Errorf("%s holds %d bytes matching no allowed variant", filepath.Base(path), len(got))
		}
		if _, err := rs.Load(a.bench, a.hash); err != nil {
			return fmt.Errorf("%s survived recovery but fails load: %w", filepath.Base(path), err)
		}
		valid++
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	plt := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			return fmt.Errorf("temp %s survived recovery", e.Name())
		}
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".plt") {
			plt++
		}
	}
	if plt != valid {
		return fmt.Errorf("%d .plt files on disk but %d allowed addresses valid", plt, valid)
	}
	paths, err := rs.List("")
	if err != nil {
		return fmt.Errorf("list: %w", err)
	}
	if len(paths) != valid {
		return fmt.Errorf("List returns %d snapshots, %d are valid", len(paths), valid)
	}
	return nil
}

// TestCrashExplorerSave enumerates every crash point while a snapshot is
// first published and then overwritten in place, and proves the address
// always recovers to a snapshot that was written, bit-exact: absent or old
// during the first save, old or new (never absent) during the overwrite.
func TestCrashExplorerSave(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	oldSnap := snapFor("crash-save", 0)
	newSnap := snapFor("crash-save", 1)
	if err := s.Save(oldSnap); err != nil {
		t.Fatal(err)
	}
	mark := cfs.OpsLen()
	if err := s.Save(newSnap); err != nil {
		t.Fatal(err)
	}
	n, err := cfs.Explore(0, "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		a := allowedContent{bench: oldSnap.Benchmark, hash: oldSnap.LearnHash, absentOK: true,
			variants: [][]byte{Encode(oldSnap)}}
		if p.N >= mark {
			// The old snapshot was durably published; no crash during the
			// overwrite may lose the address entirely.
			a.absentOK = false
			a.variants = append(a.variants, Encode(newSnap))
		}
		return checkRecovered(p, dir, []allowedContent{a})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d crash states", n)
	if n < 20 {
		t.Fatalf("only %d crash states explored; explorer is not exhaustive", n)
	}
}

// TestCrashExplorerIndexRewrite crashes at every point across two saves to
// different addresses and proves each snapshot is absent-or-exact, and the
// first stays intact once its save has returned, whatever the second save
// was doing.
func TestCrashExplorerIndexRewrite(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	snapA := snapFor("crash-idx-a", 0)
	snapB := snapFor("crash-idx-b", 0)
	if err := s.Save(snapA); err != nil {
		t.Fatal(err)
	}
	mark := cfs.OpsLen()
	if err := s.Save(snapB); err != nil {
		t.Fatal(err)
	}
	n, err := cfs.Explore(0, "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		return checkRecovered(p, dir, []allowedContent{
			{bench: snapA.Benchmark, hash: snapA.LearnHash, variants: [][]byte{Encode(snapA)}, absentOK: p.N < mark},
			{bench: snapB.Benchmark, hash: snapB.LearnHash, variants: [][]byte{Encode(snapB)}, absentOK: true},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("only %d crash states explored", n)
	}
}

// TestSaveIsOneAtomicWrite pins Save's durable cost: it performs exactly the
// operations of one bare durable.AtomicWrite of the encoded snapshot, and
// nothing else reaches the disk.
func TestSaveIsOneAtomicWrite(t *testing.T) {
	snap := snapFor("one-write", 0)
	cfs := durable.NewCrashFS()
	if err := OpenFS("warm", cfs).Save(snap); err != nil {
		t.Fatal(err)
	}
	bare := durable.NewCrashFS()
	if err := durable.AtomicWrite(bare, "warm", "x.plt", Encode(snap)); err != nil {
		t.Fatal(err)
	}
	if got, want := cfs.OpsLen(), bare.OpsLen(); got != want || want != 7 {
		t.Fatalf("Save made %d durable ops, one AtomicWrite makes %d (want 7)", got, want)
	}
}

// TestCrashExplorerConcurrentSaves interleaves three concurrent writers —
// the FlushWarm shape — and explores every crash point of the interleaved
// op log: each address independently recovers to absent-or-exact.
func TestCrashExplorerConcurrentSaves(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	benches := []string{"crash-cc-a", "crash-cc-b", "crash-cc-c"}
	snaps := make([]*Snapshot, len(benches))
	for i, b := range benches {
		snaps[i] = snapFor(b, 0)
	}
	var wg sync.WaitGroup
	for _, sn := range snaps {
		wg.Add(1)
		go func(sn *Snapshot) {
			defer wg.Done()
			if err := s.Save(sn); err != nil {
				t.Errorf("save %s: %v", sn.Benchmark, err)
			}
		}(sn)
	}
	wg.Wait()
	var allowed []allowedContent
	for _, sn := range snaps {
		allowed = append(allowed, allowedContent{
			bench: sn.Benchmark, hash: sn.LearnHash,
			variants: [][]byte{Encode(sn)}, absentOK: true,
		})
	}
	n, err := cfs.Explore(0, "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		return checkRecovered(p, dir, allowed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 40 {
		t.Fatalf("only %d crash states explored", n)
	}
}

package pltstore

import (
	"errors"
	"testing"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/transfer"
)

// TestHashKnownAnswers pins LearnHash and ReplayHash to values computed
// before the cold and transferred forms shared one function each: an empty
// directive and a zero provenance hash are the cold addresses, anything else
// the transferred ones, and every snapshot already on disk keeps its name.
func TestHashKnownAnswers(t *testing.T) {
	mcfg := machine.DefaultConfig()
	mcfg.Mode = machine.Accelerated
	mcfg.Seed = 42
	p := core.DefaultParams()
	cold := LearnHash("ab-rand", mcfg, p, 0.5, "mild", "")
	xfer := LearnHash("ab-rand", mcfg, p, 0.5, "mild", "l2=524288")
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"learn cold", cold, 0x337a9128bd1af74c},
		{"learn transferred", xfer, 0xbf53fa915eb36140},
		{"replay cold", ReplayHash(cold, "fssim:ab-rand", 42, 0), 0xec138abb58dd76f2},
		{"replay transferred", ReplayHash(xfer, "fssim:ab-rand", 42, 0xfeedface), 0x29e514c26921fb8a},
	} {
		if c.got != c.want {
			t.Errorf("%s = %016x, want %016x", c.name, c.got, c.want)
		}
	}
}

// donorAt is a donor snapshot in family fam at the default machine's
// coordinates with the L2 resized to l2 bytes.
func donorAt(bench string, fam uint64, l2 int) *Snapshot {
	return &Snapshot{Benchmark: bench, Family: fam,
		Coords: transfer.FromConfig(machine.Config{Mem: machine.DefaultConfig().Mem.WithL2Size(l2)})}
}

// TestNearest covers every rule of donor selection against a 1MB recipient.
func TestNearest(t *testing.T) {
	const fam = 0xf00d
	recip := transfer.FromConfig(machine.Config{Mem: machine.DefaultConfig().Mem.WithL2Size(1 << 20)})
	transferred := donorAt("transferred", fam, 1<<20)
	transferred.TransferHash = 7
	for _, c := range []struct {
		name   string
		donors []*Snapshot
		want   string // benchmark of the chosen donor; "" = ErrNotFound
	}{
		{"empty set", nil, ""},
		{"family mismatch skipped",
			[]*Snapshot{donorAt("other-family", fam+1, 1<<20), donorAt("same-family", fam, 2<<20)}, "same-family"},
		{"only a mismatched family", []*Snapshot{donorAt("other-family", fam+1, 1<<20)}, ""},
		{"transferred donor skipped",
			[]*Snapshot{transferred, donorAt("cold", fam, 512<<10)}, "cold"},
		{"beyond MaxDistance skipped",
			[]*Snapshot{donorAt("16MB", fam, 16<<20), donorAt("4MB", fam, 4<<20)}, "4MB"},
		{"only beyond MaxDistance", []*Snapshot{donorAt("16MB", fam, 16<<20)}, ""},
		{"nearest wins", []*Snapshot{donorAt("4MB", fam, 4<<20), donorAt("2MB", fam, 2<<20)}, "2MB"},
		{"equal distances keep the first",
			[]*Snapshot{donorAt("512KB", fam, 512<<10), donorAt("2MB", fam, 2<<20)}, "512KB"},
	} {
		got, err := Nearest(c.donors, fam, recip)
		switch {
		case c.want == "" && !errors.Is(err, ErrNotFound):
			t.Errorf("%s: got %v, %v; want ErrNotFound", c.name, got, err)
		case c.want != "" && (err != nil || got.Benchmark != c.want):
			t.Errorf("%s: got %v, %v; want %s", c.name, got, err, c.want)
		}
	}
}

// TestNearestTieFollowsListOrder: equally near donors saved to a store
// resolve to the first path List returns, whatever order they were written.
func TestNearestTieFollowsListOrder(t *testing.T) {
	s := Open(t.TempDir())
	const fam = 0xf00d
	for _, c := range []struct {
		bench string
		l2    int
	}{{"b-bench", 512 << 10}, {"a-bench", 2 << 20}} {
		snap := richSnapshot()
		snap.Benchmark, snap.Family = c.bench, fam
		snap.Coords = donorAt(c.bench, fam, c.l2).Coords
		if err := s.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	recip := transfer.FromConfig(machine.Config{Mem: machine.DefaultConfig().Mem.WithL2Size(1 << 20)})
	got, err := Nearest(s.Donors(), fam, recip)
	if err != nil || got.Benchmark != "a-bench" {
		t.Fatalf("Nearest = %v, %v; want a-bench (first in List order)", got, err)
	}
}

// TestDonorPrior: an eligible donor yields a prior and a provenance that
// names it; a donor beyond the cutoff is refused.
func TestDonorPrior(t *testing.T) {
	donor := richSnapshot()
	donor.Family = 0xf00d
	donor.Coords = donorAt("", 0, 512<<10).Coords
	recip := donorAt("", 0, 1<<20).Coords
	prior, prov, err := DonorPrior(donor, recip, donor.State.Params)
	if err != nil {
		t.Fatal(err)
	}
	if prior == nil || prov.Distance != 1 || prov.Hash == 0 ||
		prov.DonorAddr != FormatHash(donor.Family)+"/"+FormatHash(donor.LearnHash) {
		t.Errorf("provenance %+v does not describe the donor", prov)
	}
	if _, _, err := DonorPrior(donor, donorAt("", 0, 16<<20).Coords, donor.State.Params); err == nil {
		t.Error("a donor beyond transfer.MaxDistance was accepted")
	}
}

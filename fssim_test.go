package fssim_test

import (
	"testing"

	"fssim"
	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

func TestPublicRunBenchmark(t *testing.T) {
	rep, err := fssim.RunBenchmark("du", fssim.Options{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles() == 0 || rep.IPC() <= 0 {
		t.Fatalf("empty report: %+v", rep.Stats)
	}
	if rep.Coverage() != 0 {
		t.Error("non-accelerated run reported coverage")
	}
}

func TestPublicAccelerated(t *testing.T) {
	rep, err := fssim.RunBenchmark("iperf", fssim.Options{
		Mode: fssim.Accelerated, Strategy: fssim.Statistical, Scale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage() < 0.3 {
		t.Errorf("coverage = %.2f", rep.Coverage())
	}
	if rep.Accel == nil || rep.Accel.Summary().Clusters == 0 {
		t.Error("accelerator learned nothing")
	}
}

func TestPublicCustomWorkload(t *testing.T) {
	sys := fssim.NewSystem(fssim.Options{})
	sys.FS().MustCreate("/data/input", 256<<10)
	var processed int
	sys.Spawn("myapp", func(p *fssim.Proc) {
		fd := p.Open("/data/input")
		for {
			n := p.Read(fd, p.Scratch(), 64<<10)
			if n == 0 {
				break
			}
			processed += n
			p.U.Mix(2000)
		}
		p.Close(fd)
	})
	rep := sys.Run()
	if processed != 256<<10 {
		t.Fatalf("processed %d bytes", processed)
	}
	if rep.Stats.OSInsts == 0 || rep.Stats.UserInsts == 0 {
		t.Fatalf("attribution missing: %+v", rep.Stats)
	}
}

func TestPublicObserver(t *testing.T) {
	seen := 0
	rep, err := fssim.RunBenchmark("du", fssim.Options{
		Scale:    0.25,
		Observer: func(r fssim.IntervalRecord) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 || uint64(seen) != rep.Stats.Intervals {
		t.Fatalf("observer saw %d of %d intervals", seen, rep.Stats.Intervals)
	}
}

func TestPublicLists(t *testing.T) {
	if len(fssim.Benchmarks()) != 10 || len(fssim.OSIntensiveBenchmarks()) != 5 {
		t.Fatal("benchmark lists wrong")
	}
	if len(fssim.Experiments()) != 18 {
		t.Fatal("experiment list wrong")
	}
}

func TestPublicRunExperiment(t *testing.T) {
	out, err := fssim.RunExperiment("fig7", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty experiment output")
	}
}

func TestPublicWarmStart(t *testing.T) {
	dir := t.TempDir()
	opts := fssim.Options{Mode: fssim.Accelerated, Scale: 0.2, WarmDir: dir}

	cold, err := fssim.RunBenchmark("ab-seq", opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Error("first run reported a warm start with an empty store")
	}

	warm, err := fssim.RunBenchmark("ab-seq", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("second run did not warm-start from the persisted snapshot")
	}
	if warm.Coverage() <= cold.Coverage() {
		t.Errorf("warm coverage %.3f not above cold %.3f (learning window not skipped)",
			warm.Coverage(), cold.Coverage())
	}
	coldSum, warmSum := cold.Accel.Summary(), warm.Accel.Summary()
	if warmSum.Learned-coldSum.Learned >= coldSum.Learned {
		t.Errorf("warm run learned %d new instances vs %d cold (warm start saved nothing)",
			warmSum.Learned-coldSum.Learned, coldSum.Learned)
	}

	// A different configuration hashes elsewhere: cold again, no error.
	other := opts
	other.Scale = 0.3
	rerun, err := fssim.RunBenchmark("ab-seq", other)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.WarmStarted {
		t.Error("scale change still warm-started: hash gate missed a config field")
	}
}

// TestPublicWarmStartDonates: a table learned through the library carries
// its sweep family and coordinates, so it donates to a neighboring L2
// configuration exactly as one learned through the fssim CLI does.
func TestPublicWarmStartDonates(t *testing.T) {
	dir := t.TempDir()
	opts := fssim.Options{Mode: fssim.Accelerated, Strategy: fssim.Statistical,
		Scale: 0.1, L2Size: 512 << 10, WarmDir: dir}
	if _, err := fssim.RunBenchmark("ab-rand", opts); err != nil {
		t.Fatal(err)
	}
	recip := workload.DefaultOptions().Machine
	recip.Mode = machine.Accelerated
	params := core.DefaultParams()
	params.Strategy = core.Statistical
	family := transfer.FamilyHash("ab-rand", recip, params, opts.Scale, "")
	donor, err := pltstore.Nearest(pltstore.Open(dir).Donors(), family, transfer.FromConfig(recip))
	if err != nil {
		t.Fatalf("no donor for the 1MB recipient: %v", err)
	}
	if donor.Benchmark != "ab-rand" || donor.Coords.L2Size != 512<<10 {
		t.Errorf("donor %s with L2 %d, want the 512KB ab-rand table", donor.Benchmark, donor.Coords.L2Size)
	}
}

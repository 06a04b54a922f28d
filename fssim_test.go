package fssim_test

import (
	"path/filepath"
	"testing"

	"fssim"
	"fssim/internal/core"
	"fssim/internal/experiments"
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

// TestPublicWarmStart: an identical run replays its own snapshot with equal
// Stats, a change of configuration does not, and a run at another seed with
// Transfer imports the recorded table as a distance-0 donor and skips the
// learning window its cold twin pays.
func TestPublicWarmStart(t *testing.T) {
	dir := t.TempDir()
	opts := fssim.Options{Mode: fssim.Accelerated, Scale: 0.2, WarmDir: dir}
	run := func(o fssim.Options) *fssim.Report {
		t.Helper()
		rep, err := fssim.RunBenchmark("ab-seq", o)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cold := run(opts)
	if cold.Replayed {
		t.Error("first run replayed from an empty store")
	}
	again := run(opts)
	if !again.Replayed {
		t.Fatal("identical second run did not replay its snapshot")
	}
	if again.Stats != cold.Stats || again.Coverage() != cold.Coverage() {
		t.Errorf("replay differs from the run it recorded: %+v vs %+v", again.Stats, cold.Stats)
	}
	if again.Machine != nil || again.Kernel != nil {
		t.Error("replay exposes a machine or kernel it never ran")
	}

	// A different configuration hashes elsewhere: simulated, no error.
	other := opts
	other.Scale = 0.3
	if run(other).Replayed {
		t.Error("scale change still replayed: hash gate missed a config field")
	}

	seed2 := opts
	seed2.Seed, seed2.Transfer = 2, true
	xfer := run(seed2)
	if xfer.Replayed || xfer.Transfer == nil || xfer.Transfer.Distance != 0 {
		t.Fatalf("seed 2: replayed %v, transfer %v; want the seed-1 table imported at distance 0",
			xfer.Replayed, xfer.Transfer)
	}
	seed2.WarmDir, seed2.Transfer = "", false
	twin := run(seed2)
	if xfer.Coverage() <= twin.Coverage() {
		t.Errorf("transferred coverage %.3f not above the cold seed-2 twin's %.3f",
			xfer.Coverage(), twin.Coverage())
	}
	if x, c := xfer.Accel.Summary().Learned, twin.Accel.Summary().Learned; x >= c {
		t.Errorf("transferred run learned %d instances, cold twin %d (learning window not skipped)", x, c)
	}
}

// frontEndKey is the run key fssim.Options{Mode: mode, Strategy:
// Statistical, Scale: 0.2} projects to for bench, spelled out independently.
func frontEndKey(bench string, mode machine.SimMode) experiments.RunKey {
	return experiments.RunKey{Bench: bench, Mode: mode, Scale: 0.2, Seed: 1,
		Strategy: core.Statistical}.Normalized()
}

func newScheduler(warmDir string) *experiments.Scheduler {
	cfg := experiments.DefaultConfig()
	cfg.Parallelism, cfg.WarmDir = 1, warmDir
	return experiments.NewScheduler(cfg)
}

// TestFrontEndsSameRun: RunBenchmark and the experiment scheduler simulate
// the same run for the same options, in full-system and accelerated mode.
func TestFrontEndsSameRun(t *testing.T) {
	sched := newScheduler("")
	for _, mode := range []machine.SimMode{fssim.FullSystem, fssim.Accelerated} {
		rep, err := fssim.RunBenchmark("du", fssim.Options{Mode: mode, Strategy: fssim.Statistical, Scale: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Get(frontEndKey("du", mode))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != res.Stats {
			t.Errorf("%s: library %+v, scheduler %+v", mode, rep.Stats, res.Stats)
		}
	}
}

// TestFrontEndsShareWarmStore: a table saved by RunBenchmark replays in a
// fresh scheduler on the same directory, and one saved by a scheduler
// replays in RunBenchmark — one snapshot, one meaning.
func TestFrontEndsShareWarmStore(t *testing.T) {
	opts := fssim.Options{Mode: fssim.Accelerated, Strategy: fssim.Statistical, Scale: 0.2}
	key := frontEndKey("ab-seq", fssim.Accelerated)

	libDir := t.TempDir()
	o := opts
	o.WarmDir = libDir
	lib, err := fssim.RunBenchmark("ab-seq", o)
	if err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(libDir)
	res, err := sched.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if st := sched.Stats(); st.WarmHits != 1 || st.WarmInvalid != 0 {
		t.Errorf("scheduler on the library's store: %d warm hits, %d invalid; want 1, 0", st.WarmHits, st.WarmInvalid)
	}
	if res.Stats != lib.Stats {
		t.Errorf("scheduler replay %+v, library run %+v", res.Stats, lib.Stats)
	}

	schedDir := t.TempDir()
	res, err = newScheduler(schedDir).Get(key)
	if err != nil {
		t.Fatal(err)
	}
	o.WarmDir = schedDir
	rep, err := fssim.RunBenchmark("ab-seq", o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replayed || rep.Kernel != nil {
		t.Fatalf("library on the scheduler's store: replayed %v, kernel attached %v; want a replay", rep.Replayed, rep.Kernel != nil)
	}
	if rep.Stats != res.Stats {
		t.Errorf("library replay %+v, scheduler run %+v", rep.Stats, res.Stats)
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

// TestPublicSampledRunDoesNotPersist: a table learned under sampling must not
// pose as the unsampled configuration's, so a sampled run saves no snapshot
// and its unsampled twin on the same store starts cold.
func TestPublicSampledRunDoesNotPersist(t *testing.T) {
	dir := t.TempDir()
	smp, err := fssim.ParseSampleSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	opts := fssim.Options{Mode: fssim.Accelerated, Scale: 0.2, WarmDir: dir, Sample: smp}
	if _, err := fssim.RunBenchmark("ab-seq", opts); err != nil {
		t.Fatal(err)
	}
	if plts, _ := filepath.Glob(filepath.Join(dir, "*.plt")); len(plts) != 0 {
		t.Errorf("sampled run persisted %v", plts)
	}
	opts.Sample = fssim.SampleSpec{}
	rep, err := fssim.RunBenchmark("ab-seq", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed {
		t.Error("unsampled run replayed a table learned under sampling")
	}
}

// TestPublicTransfer is the library form of the fssim CLI's transfer
// contract: a run with no exact snapshot imports the nearest eligible donor
// (a neighboring L2 size) and covers more than its cold twin, while a donor
// too far away is rejected and the run stays cold.
func TestPublicTransfer(t *testing.T) {
	opts := fssim.Options{Mode: fssim.Accelerated, Strategy: fssim.Statistical, Scale: 0.1}
	run := func(bench string, o fssim.Options) *fssim.Report {
		t.Helper()
		rep, err := fssim.RunBenchmark(bench, o)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	withStore := func(dir string, l2 int, xfer bool) fssim.Options {
		o := opts
		o.WarmDir, o.L2Size, o.Transfer = dir, l2, xfer
		return o
	}

	near := t.TempDir()
	run("ab-rand", withStore(near, 512<<10, false))
	hit := run("ab-rand", withStore(near, 0, true))
	if hit.Transfer == nil || hit.Replayed {
		t.Fatalf("512KB donor: transfer %v, replayed %v; want an imported donor", hit.Transfer, hit.Replayed)
	}
	// A library-learned table records its family and coordinates: the donor
	// is the ab-rand table one L2 doubling away.
	if p := hit.Transfer; p.DonorBench != "ab-rand" || p.Distance != 1 {
		t.Errorf("donor %s at distance %.1f, want the 512KB ab-rand table at 1.0", p.DonorBench, p.Distance)
	}
	if cold := run("ab-rand", opts); hit.Coverage() <= cold.Coverage() {
		t.Errorf("transferred coverage %.3f not above cold %.3f", hit.Coverage(), cold.Coverage())
	}

	far := t.TempDir()
	run("ab-seq", withStore(far, 16<<20, false))
	miss := run("ab-seq", withStore(far, 0, true))
	if miss.Transfer != nil || miss.Replayed {
		t.Fatalf("16MB donor: transfer %v, replayed %v; want a cold run", miss.Transfer, miss.Replayed)
	}
	if cold := run("ab-seq", opts); miss.Stats != cold.Stats {
		t.Errorf("rejected transfer diverged from its cold twin: %+v vs %+v", miss.Stats, cold.Stats)
	}
}

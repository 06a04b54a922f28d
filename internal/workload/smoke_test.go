package workload

import (
	"testing"

	"fssim/internal/machine"
)

// TestSmokeAllBenchmarks runs every benchmark at reduced scale in
// full-system mode and checks basic sanity: completion, nonzero cycles, and
// the expected OS-intensity split.
func TestSmokeAllBenchmarks(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Scale = 0.25
			res, err := Run(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			t.Logf("%s: %d insts (%d user / %d OS = %.0f%%), %d cycles, IPC %.3f, %d intervals, L2 MR %.4f",
				name, st.Insts, st.UserInsts, st.OSInsts,
				100*float64(st.OSInsts)/float64(st.Insts),
				st.Cycles, st.IPC(), st.Intervals, st.Mem.L2.MissRate())
			if st.Insts == 0 || st.Cycles == 0 {
				t.Fatalf("empty run: %+v", st)
			}
			b, _ := Lookup(name)
			osFrac := float64(st.OSInsts) / float64(st.Insts)
			if b.OSIntensive && osFrac < 0.4 {
				t.Errorf("OS-intensive benchmark ran only %.0f%% OS instructions", 100*osFrac)
			}
			if !b.OSIntensive && osFrac > 0.3 {
				t.Errorf("compute benchmark ran %.0f%% OS instructions", 100*osFrac)
			}
		})
	}
}

// TestSmokeAppOnly checks that App-Only simulation completes and costs
// dramatically fewer cycles than full-system for an OS-intensive workload.
func TestSmokeAppOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.25
	full, err := Run("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Machine.Mode = machine.AppOnly
	app, err := Run("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full=%d cycles, app-only=%d cycles (ratio %.1fx)",
		full.Stats.Cycles, app.Stats.Cycles,
		float64(full.Stats.Cycles)/float64(app.Stats.Cycles))
	if app.Stats.Cycles*2 >= full.Stats.Cycles {
		t.Errorf("app-only (%d) should be far cheaper than full (%d)",
			app.Stats.Cycles, full.Stats.Cycles)
	}
}

// TestFullABSeqScale2Completes: at scale 2, a device event fired by one of
// schedule()'s run-queue loads shrinks the run queue mid-scan. The scan must
// follow the live queue rather than the length it started with.
func TestFullABSeqScale2Completes(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 2
	res, err := Run("ab-seq", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Insts == 0 || res.Stats.Cycles == 0 {
		t.Fatalf("empty run: %+v", res.Stats)
	}
}

package workload

import (
	"fmt"
	"testing"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/sample"
)

// TestSampledAppKnownAnswers pins the application-interval path end to end:
// art (working set over the L2) and gzip (fits) under the default sampling
// preset, with the OS side simulated in full and accelerated. The literals
// were computed before OS-service and application intervals shared one
// open, close and predict path in the machine, so the shared path must
// reproduce the per-kind paths exactly. The per-kind paths left
// Pred.L2Writebacks at 0; its literals were computed on them with the
// missing accumulation added, which moved no other value.
func TestSampledAppKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		bench string
		mode  machine.SimMode
		want  string
	}{
		{"art", machine.FullSystem,
			"cycles=98649784 insts=9985730 intervals=703 emulated=0 emu=0 pred={Cycles:86689859 L1IMisses:2091 L1DMisses:2077866 L2Misses:2079973 L1IAccesses:8531389 L1DAccesses:2079857 L2Accesses:2083456 L2Writebacks:80442} app=703/30/8860729"},
		{"art", machine.Accelerated,
			"cycles=94202903 insts=9985806 intervals=702 emulated=536 emu=136680 pred={Cycles:82980701 L1IMisses:947 L1DMisses:2103302 L2Misses:1064523 L1IAccesses:8617426 L1DAccesses:2345574 L2Accesses:2168546 L2Writebacks:32539} app=702/28/8801116"},
		{"gzip", machine.FullSystem,
			"cycles=2541833 insts=6527443 intervals=153 emulated=0 emu=0 pred={Cycles:1458986 L1IMisses:9 L1DMisses:803051 L2Misses:9 L1IAccesses:1749243 L1DAccesses:1332691 L2Accesses:1272274 L2Writebacks:0} app=153/25/4227169"},
		{"gzip", machine.Accelerated,
			"cycles=2542145 insts=6527443 intervals=153 emulated=8 emu=2040 pred={Cycles:1457326 L1IMisses:9 L1DMisses:802114 L2Misses:975 L1IAccesses:1748151 L1DAccesses:1334205 L2Accesses:1270614 L2Writebacks:0} app=153/25/4218928"},
	} {
		opts := DefaultOptions()
		opts.Scale = 4
		opts.Machine.Mode = c.mode
		if c.mode == machine.Accelerated {
			opts.Sink = core.NewAccelerator(core.DefaultParams())
		}
		opts.Sample = sample.New(sample.DefaultSpec(), 1)
		res, err := Run(c.bench, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", c.bench, c.mode, err)
		}
		st := res.Stats
		ai, ae, aei := res.Machine.AppIntervalStats()
		got := fmt.Sprintf("cycles=%d insts=%d intervals=%d emulated=%d emu=%d pred=%+v app=%d/%d/%d",
			st.Cycles, st.Insts, st.Intervals, st.Emulated, st.EmuInsts, st.Pred, ai, ae, aei)
		if got != c.want {
			t.Errorf("%s %v:\n got %s\nwant %s", c.bench, c.mode, got, c.want)
		}
	}
}

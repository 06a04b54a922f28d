package workload

import (
	"math"
	"testing"

	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
)

func relErr(pred, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return math.Abs(pred-truth) / truth
}

// TestAcceleratedAccuracy runs the OS-intensive benchmarks under the
// Statistical strategy and checks the paper's headline claims at our scale:
// substantial prediction coverage with single-digit execution-time error.
func TestAcceleratedAccuracy(t *testing.T) {
	for _, name := range OSIntensiveNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Scale = 1.0
			full, err := Run(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			acc := core.NewAccelerator(core.DefaultParams())
			opts.Machine.Mode = machine.Accelerated
			opts.Sink = acc
			pred, err := Run(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := acc.Summary()
			e := relErr(float64(pred.Stats.Cycles), float64(full.Stats.Cycles))
			t.Logf("%s: coverage %.0f%%, cycles %d vs %d (err %.1f%%), IPC %.3f vs %.3f, clusters %d, relearns %d, outliers %d",
				name, 100*sum.Coverage(), pred.Stats.Cycles, full.Stats.Cycles,
				100*e, pred.Stats.IPC(), full.Stats.IPC(), sum.Clusters, sum.Relearns, sum.Outliers)
			if sum.Coverage() < 0.30 {
				t.Errorf("coverage %.2f too low", sum.Coverage())
			}
			if e > 0.15 {
				t.Errorf("execution-time error %.1f%% too high", 100*e)
			}
		})
	}
}

// detailedSink is an acceleration engine that never predicts: it asks for
// every OS service interval to be simulated in detail.
type detailedSink struct{}

func (detailedSink) OnServiceStart(isa.ServiceID) (bool, float64) { return true, 0 }
func (detailedSink) OnServiceEnd(isa.ServiceID, machine.Signature, *machine.Measurement) *machine.Prediction {
	return nil
}

// TestNeverPredictingAcceleratorMatchesFull pins a design invariant: an
// Accelerated run whose sink never predicts is the FullSystem run. Every
// machine statistic — cycles, instruction counters, the cache snapshot,
// DRAM and branch-predictor counts — must be identical on each OS-intensive
// benchmark.
func TestNeverPredictingAcceleratorMatchesFull(t *testing.T) {
	for _, name := range OSIntensiveNames() {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Scale = 0.1
			full, err := Run(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Machine.Mode = machine.Accelerated
			opts.Sink = detailedSink{}
			acc, err := Run(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			if full.Stats.OSInsts == 0 || full.Stats.Intervals == 0 {
				t.Fatalf("degenerate run: %+v", full.Stats)
			}
			t.Logf("%d insts, %d OS intervals", full.Stats.Insts, full.Stats.Intervals)
			if acc.Stats != full.Stats {
				t.Errorf("never-predicting accelerated run differs from full system:\n accel: %+v\n  full: %+v",
					acc.Stats, full.Stats)
			}
		})
	}
}

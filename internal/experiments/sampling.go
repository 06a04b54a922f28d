package experiments

import (
	"fmt"
	"math"

	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/workload"
)

// The sampling experiment quantifies the stratified-sampling fast path: for
// each OS-intensive benchmark it simulates the full-system run twice — once
// with every application interval in detailed mode (the reference) and once
// per sampling preset — and reports the error/speedup curve: how many times
// fewer app intervals were simulated in detail, what that did to the
// predicted CPI, and the estimator's own 95% confidence interval on the
// extrapolated cycles. Because a sampled key shares its unsampled twin's
// derived seed, both runs replay the identical workload trajectory and the
// error column is pure estimator error.

// samplingPresets is the coarse-to-fine curve the experiment sweeps.
var samplingPresets = []string{"fast", "default", "precise"}

// samplingMinScale is the smallest workload scale the estimator is
// characterized at: below it the per-benchmark app-interval population is too
// small for the pilot phase plus per-stratum budgets to amortize, and
// trajectory perturbation noise dominates the estimate.
const samplingMinScale = 0.25

// samplingScale clamps the config's scale up to the estimator's minimum.
func samplingScale(cfg Config) float64 {
	if cfg.Scale < samplingMinScale {
		return samplingMinScale
	}
	return cfg.Scale
}

// samplingBase is the all-detailed reference key for one benchmark: the
// full-system run at the sampling scale with any config-wide sampling spec
// stripped, so the reference is always the exact-simulation twin.
func samplingBase(cfg Config, name string) RunKey {
	k := cfg.benchKey(name, machine.FullSystem, 0)
	k.Scale = samplingScale(cfg)
	k.Sample = sample.Spec{}
	return k
}

// sampledKey is base under the sampling preset.
func sampledKey(base RunKey, preset string) RunKey {
	base.Sample = samplingSpec(preset)
	return base
}

// samplingSpec returns the parsed spec of a built-in preset.
func samplingSpec(preset string) sample.Spec {
	sp, err := sample.ParseSpec(preset)
	if err != nil {
		panic("experiments: bad built-in sampling preset " + preset + ": " + err.Error())
	}
	return sp
}

func samplingNeeds(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range workload.OSIntensiveNames() {
		base := samplingBase(cfg, name)
		keys = append(keys, base)
		for _, preset := range samplingPresets {
			keys = append(keys, sampledKey(base, preset))
		}
	}
	return keys
}

// SamplingExp renders the error/speedup curve of the app-interval sampler.
func SamplingExp(cfg Config) (*Result, error) {
	t := NewTable("benchmark", "spec", "intervals", "detailed", "reduction",
		"cpi full", "cpi sampled", "err%", "ci±%")
	type worst struct {
		err, red float64
	}
	w := worst{red: math.Inf(1)}
	for _, name := range workload.OSIntensiveNames() {
		base := samplingBase(cfg, name)
		ref, err := getKey(cfg, base)
		if err != nil {
			return nil, err
		}
		refCPI := cpiOf(ref.res.Stats)
		for _, preset := range samplingPresets {
			out, err := getKey(cfg, sampledKey(base, preset))
			if err != nil {
				return nil, err
			}
			if out.smp == nil {
				return nil, fmt.Errorf("sampling: run %s produced no sampler report", name)
			}
			rep := out.smp.Report()
			cpi := cpiOf(out.res.Stats)
			errPct := 100 * (cpi - refCPI) / refCPI
			t.AddRowf(name, preset,
				fmt.Sprint(rep.Intervals), fmt.Sprint(rep.Detailed),
				fmt.Sprintf("%.2fx", rep.Reduction()),
				fmt.Sprintf("%.4f", refCPI), fmt.Sprintf("%.4f", cpi),
				fmt.Sprintf("%+.3f", errPct),
				fmt.Sprintf("%.3f", 100*rep.RelCI(out.res.Stats.Cycles)))
			if preset == "default" {
				if a := math.Abs(errPct); a > w.err {
					w.err = a
				}
				if r := rep.Reduction(); r < w.red {
					w.red = r
				}
			}
		}
	}
	res := &Result{Table: t}
	if sc := samplingScale(cfg); sc != cfg.Scale {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"measured at scale %g: below it the app-interval population cannot amortize the pilot phase", sc))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"default preset, worst case across benchmarks: |err| %.3f%% at %.2fx reduction (target ≤2%% at ≥3x)",
		w.err, w.red))
	return res, nil
}

// cpiOf is the run's cycles-per-instruction over its post-warm-up window.
func cpiOf(st machine.Stats) float64 {
	if st.Insts == 0 {
		return 0
	}
	return float64(st.Cycles) / float64(st.Insts)
}

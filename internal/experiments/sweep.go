package experiments

import (
	"fmt"

	"fssim/internal/core"
	"fssim/internal/transfer"
)

// The sweep experiment measures what cross-config PLT transfer buys on the
// paper's canonical design-space walk: an L2 capacity sweep (the Figs 2/10/12
// axis). The 512KB point is simulated cold and acts as the donor; every
// further point is simulated twice — once cold and once warm-started from the
// donor via the explicit "l2=<bytes>" directive — so the table shows, per
// point, the detailed-interval work transfer avoids and the prediction error
// it costs against the cold twin (both runs replay the identical workload
// trajectory, so the difference is purely the imported priors). An 8MB point
// sits beyond the eligibility cutoff (distance 4.0 > 2.5): its directive is
// rejected, counted, and the run falls back to a cold start the experiment
// verifies is byte-identical to the cold twin.
//
// The in-invocation sibling donor (rather than the warm store) keeps the
// experiment a pure function of the Config: no on-disk state participates,
// and the table is byte-identical at any parallelism, with or without
// Config.WarmDir.

// sweepDonorL2 is the sweep's first (donor) point.
const sweepDonorL2 = 512 << 10

// sweepPoints are the recipient L2 capacities walked from the donor:
// 1MB and 2MB are within the eligibility cutoff (distance 1.0 and 2.0);
// 8MB (distance 4.0) is deliberately beyond it to pin the rejection path.
var sweepPoints = []int{1 << 20, 2 << 20, 8 << 20}

// sweepBenches mirrors warmstartBenches: two OS-intensive workloads carry the
// result; more add cost, not information.
func sweepBenches() []string { return warmstartBenches() }

// sweepDirective is the transfer directive pairing every recipient with the
// sweep's donor point.
var sweepDirective = transfer.Spec{L2: sweepDonorL2}

// sweepKeys builds one benchmark's run set: the cold donor, then a cold and a
// transferred twin per recipient point. Keys are built explicitly (not through
// accelKey alone) so the cold twins stay cold even under a -transfer Config.
func sweepKeys(cfg Config, name string) (donor RunKey, cold, warm []RunKey) {
	donor = cfg.accelKey(name, core.Statistical, sweepDonorL2)
	donor.Transfer = transfer.Spec{}
	for _, l2 := range sweepPoints {
		k := cfg.accelKey(name, core.Statistical, l2)
		k.Transfer = transfer.Spec{}
		cold = append(cold, k)
		k.Transfer = sweepDirective
		warm = append(warm, k)
	}
	return donor, cold, warm
}

func sweepNeeds(cfg Config) []RunKey {
	var keys []RunKey
	for _, name := range sweepBenches() {
		donor, cold, warm := sweepKeys(cfg, name)
		keys = append(keys, donor)
		keys = append(keys, cold...)
		keys = append(keys, warm...)
	}
	return keys
}

// sizeLabel renders an L2 capacity the way the sweep table heads its rows.
func sizeLabel(bytes int) string {
	if bytes >= 1<<20 && bytes%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", bytes>>20)
	}
	return fmt.Sprintf("%dKB", bytes>>10)
}

// SweepExp runs the transfer study: per sweep point, the detailed-interval
// work a transferred PLT avoids versus its cold twin, the cycle error the
// imported priors introduce, and the explicit rejection of an out-of-range
// donor.
func SweepExp(cfg Config) (*Result, error) {
	t := NewTable("benchmark", "L2", "dist", "scale", "detailed cold", "detailed xfer",
		"speedup", "cyc err %", "status")
	var detCold, detWarm uint64
	var transferred, rejected int
	for _, name := range sweepBenches() {
		donorKey, coldKeys, warmKeys := sweepKeys(cfg, name)
		donorOut, err := getKey(cfg, donorKey)
		if err != nil {
			return nil, err
		}
		dDonor := donorOut.res.Stats.Intervals - donorOut.res.Stats.Emulated
		t.AddRowf(name, sizeLabel(sweepDonorL2), "-", "-",
			fmt.Sprintf("%d", dDonor), "-", "-", "-", "donor")

		donorCrd := transfer.FromConfig(machineConfigFor(donorKey))
		for i, l2 := range sweepPoints {
			coldOut, err := getKey(cfg, coldKeys[i])
			if err != nil {
				return nil, err
			}
			warmOut, err := getKey(cfg, warmKeys[i])
			if err != nil {
				return nil, err
			}
			dist := transfer.Distance(donorCrd, transfer.FromConfig(machineConfigFor(warmKeys[i])))
			dc := coldOut.res.Stats.Intervals - coldOut.res.Stats.Emulated
			dw := warmOut.res.Stats.Intervals - warmOut.res.Stats.Emulated
			speedup := fmt.Sprintf("%.1fx", float64(dc)/float64(dw))
			errPct := fmt.Sprintf("%.3f",
				100*absErr(float64(warmOut.res.Stats.Cycles), float64(coldOut.res.Stats.Cycles)))
			switch {
			case warmOut.transfer != nil:
				transferred++
				detCold += dc
				detWarm += dw
				t.AddRowf(name, sizeLabel(l2),
					fmt.Sprintf("%.1f", warmOut.transfer.Distance),
					fmt.Sprintf("%.3f", warmOut.transfer.Scale),
					fmt.Sprintf("%d", dc), fmt.Sprintf("%d", dw),
					speedup, errPct, "transferred")
			default:
				// The directive was rejected (here: distance beyond the
				// cutoff) and the run fell back to a cold start. The fallback
				// must be *exactly* the cold twin — same seed, same
				// trajectory — so anything but identical stats means the
				// rejection path leaked state.
				rejected++
				if warmOut.res.Stats != coldOut.res.Stats {
					return nil, fmt.Errorf(
						"sweep: %s @ %s: rejected transfer diverged from its cold twin",
						name, sizeLabel(l2))
				}
				t.AddRowf(name, sizeLabel(l2),
					fmt.Sprintf("%.1f", dist), "-",
					fmt.Sprintf("%d", dc), fmt.Sprintf("%d", dw),
					speedup, errPct, "rejected")
			}
		}
	}
	res := &Result{Table: t}
	res.Notes = append(res.Notes,
		fmt.Sprintf("transfer: %d point(s) imported rescaled donor priors, %d rejected (distance > %.1f) and re-learned cold",
			transferred, rejected, transfer.MaxDistance),
		fmt.Sprintf("transferred points simulate %d detailed intervals where cold sweeps needed %d",
			detWarm, detCold),
		"rejected points are byte-identical to their cold twins: a bad donor is refused, never half-imported")
	return res, nil
}

package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"fssim/internal/core"
	"fssim/internal/faults"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// RunKey is the single typed description of one simulation. The experiment
// runners, the serving front-end and the warm store all derive every
// identity they use from it through the projections in this file, so two
// layers can never disagree about which runs are "the same". The paper's
// baselines (full-system App+OS at the default L2, for example) are needed by
// fig1, fig2, fig8, fig9, fig10 and tab2, but as one key they are simulated
// exactly once per Scheduler.
//
// Keys are compared (and used as memo-cache map keys) only in Normalized
// form. Which fields feed which identity:
//
//	field     | seed | String | ID | learn | replay | family | plan
//	----------+------+--------+----+-------+--------+--------+-----
//	Bench     |  x   |   x    | x  |   x   |   x    |   x    |  -
//	Mode      |  x   |   x    | x  |   x   |   x    |   x    |  -
//	L2        |  x   |   x    | x  |   x   |   x    |   -    |  -
//	Scale     |  x   |   x    | x  |   x   |   x    |   x    |  x
//	Seed      |  x   |   -    | x  |   -   |   x    |   -    |  x
//	Strategy  |  x   |   x    | x  |   x   |   x    |   x    |  -
//	Watchdog  |  x   |   x    | x  |   x   |   x    |   x    |  -
//	Faults    |  x   |   x    | x  |   x   |   x    |   x    |  x
//	variants  |  x   |   x    | x  |   x   |   x    |   x    |  -
//	Sample    |  -   |   x    | x  |   -   |   x    |   -    |  -
//	Transfer  |  -   |   x    | x  |   x   |   x    |   -    |  -
//
// The variants row stands for each of InOrder, NoCaches, TLB and Prefetch.
// Strategy and Watchdog exist only on Accelerated keys: Normalized zeroes
// them elsewhere, so on a full-system or app-only key they feed nothing.
// Likewise Seed and Scale feed the plan only on keys with Faults. The learn,
// replay and family addresses are only ever stored for Accelerated keys (see
// warmStore.eligible). One input of the replay address lies outside the
// key: the TransferHash of the donor a transferred run imported, which is
// known only once the directive has resolved.
type RunKey struct {
	Bench string
	Mode  machine.SimMode
	L2    int // L2 size in bytes; 0 = the platform default
	Scale float64
	Seed  int64 // the config's base seed; the run's machine seed is derived
	// Strategy is the re-learning policy of an Accelerated run.
	Strategy core.Strategy
	// Watchdog arms the prediction-divergence watchdog on an Accelerated run.
	Watchdog bool
	// Faults is the faults.Named plan injected into the run (the zero Spec
	// = none); identities use its Name. The schedule is faultPlanFor's.
	Faults faults.Spec
	// Machine variants: the in-order core, ideal memory (no cache models),
	// modeled I/D TLBs, and the L2 next-line prefetcher.
	InOrder, NoCaches, TLB, Prefetch bool
	// Sample is the application-interval stratified-sampling policy (the
	// zero Spec = every app interval detailed). A sampled run replays the
	// exact workload trajectory of its unsampled twin, so comparing the two
	// measures pure estimator error, not seed-to-seed variance.
	Sample sample.Spec
	// Transfer is the directive for warm-starting this run's PLT from a
	// neighbor configuration (the zero Spec = cold start). Like Sample it
	// leaves the seed alone: the transferred run replays its cold twin's
	// trajectory, so any divergence is the imported priors' doing.
	Transfer transfer.Spec
}

// Normalized applies every default, so all spellings of one run are one
// key: the platform-default L2 becomes 0, a non-positive scale 1, a zero
// seed 1, and Strategy and Watchdog are cleared on keys that are not
// Accelerated. It is idempotent.
func (k RunKey) Normalized() RunKey {
	if k.L2 == defaultL2() {
		k.L2 = 0
	}
	if k.Scale <= 0 {
		k.Scale = 1.0
	}
	if k.Seed == 0 {
		k.Seed = 1
	}
	if k.Mode != machine.Accelerated {
		k.Strategy, k.Watchdog = 0, false
	}
	return k
}

// opts is the word that encodes Strategy and Watchdog in DeriveSeed and
// String: uint64(strategy)+1 in the low byte, the watchdog at bit 8, and 0
// for keys that are not Accelerated. The encoding predates the typed fields
// and is kept so derived seeds, key strings and every address built on them
// stay byte-identical.
func (k RunKey) opts() uint64 {
	if k.Mode != machine.Accelerated {
		return 0
	}
	w := uint64(k.Strategy) + 1
	if k.Watchdog {
		w |= 1 << 8
	}
	return w
}

// variants names the machine variants a key sets, comma-separated, in field
// order ("" for the platform as the paper describes it).
func (k RunKey) variants() string {
	var v []string
	for i, on := range []bool{k.InOrder, k.NoCaches, k.TLB, k.Prefetch} {
		if on {
			v = append(v, [...]string{"inorder", "nocaches", "tlb", "prefetch"}[i])
		}
	}
	return strings.Join(v, ",")
}

// --- seed: DeriveSeed -------------------------------------------------------
// Fed by every field but Sample and Transfer.

// DeriveSeed maps the base seed and the key's coordinates to the seed the
// run's machine uses. Deriving per-run seeds (rather than handing every run
// the same base seed) makes each simulation's randomness a pure function of
// what is being simulated, so results are independent of scheduling order
// and of which other experiments happen to share the cache. Sample and
// Transfer are not hashed: both variants must replay the workload trajectory
// of the plain run at the same coordinates for error attribution to mean
// anything.
func (k RunKey) DeriveSeed() int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%x|%d|%d",
		k.Bench, k.Mode, k.L2, math.Float64bits(k.Scale), k.Seed, k.opts())
	// Appended only when set, so runs without them keep the seeds they had
	// before fault injection and machine variants were part of the key.
	if k.Faults.Name != "" {
		fmt.Fprintf(h, "|faults=%s", k.Faults.Name)
	}
	if v := k.variants(); v != "" {
		fmt.Fprintf(h, "|machine=%s", v)
	}
	return positive(h.Sum64())
}

// positive folds a hash into a non-zero, non-negative seed.
func positive(h uint64) int64 {
	if s := int64(h &^ (1 << 63)); s != 0 {
		return s
	}
	return 1
}

// --- result: the map key, String, ID ----------------------------------------
// The map key is the whole normalized struct; String is every field but
// Seed; ID is every field.

// String renders the key compactly for notes, error messages and snapshot
// diagnostics. It omits Seed; ID adds it back.
func (k RunKey) String() string {
	s := fmt.Sprintf("%s/%s/L2=%d/scale=%g", k.Bench, k.Mode, k.L2, k.Scale)
	if o := k.opts(); o != 0 {
		s += fmt.Sprintf("/opts=%d", o)
	}
	if k.Faults.Name != "" {
		s += "/faults=" + k.Faults.Name
	}
	if v := k.variants(); v != "" {
		s += "/machine=" + v
	}
	if smp := k.Sample.String(); smp != "" {
		s += "/sample=" + smp
	}
	if xfer := k.Transfer.String(); xfer != "" {
		s += "/transfer=" + xfer
	}
	return s
}

// ID is the deterministic public id of the run — the one a serving
// front-end hands out: identical requests, from any client at any time, map
// to the same id.
func (k RunKey) ID() string {
	h := fnv.New64a()
	io.WriteString(h, k.String())
	fmt.Fprintf(h, "|seed=%d", k.Seed)
	return fmt.Sprintf("r%016x", h.Sum64())
}

// --- learn address: warmLearnHash -------------------------------------------
// Fed by every field but Seed and Sample.

// warmLearnHash is the snapshot address of key's configuration. The transfer
// directive is part of the address: a transferred run's learned table is
// shaped by the imported priors and must never be mistaken for (or overwrite)
// the cold-learned table of the identical configuration.
func warmLearnHash(key RunKey) uint64 {
	return pltstore.LearnHash(key.Bench, machineConfigFor(key), accelParamsFor(key),
		key.Scale, key.Faults.Name, key.Transfer.String())
}

// --- replay address: warmReplayHash -----------------------------------------
// Fed by every field, plus the provenance hash of a transferred run.

// warmReplayHash is the exact-replay address of key. transferHash, the one
// input outside the key, is the provenance hash of the donor and model a
// transferred run imported (0 for a cold run), so a snapshot recorded under
// one donor never replays for an invocation that resolved a different one.
func warmReplayHash(key RunKey, transferHash uint64) uint64 {
	return pltstore.ReplayHash(warmLearnHash(key), key.String(), key.DeriveSeed(), transferHash)
}

// --- family: familyHash -----------------------------------------------------
// Fed by every field but L2, Seed, Sample and Transfer.

// familyHash is the sweep-family address of key: its learn address minus the
// swept machine coordinates (L2 among them) and the transfer directive.
func familyHash(key RunKey) uint64 {
	return transfer.FamilyHash(key.Bench, machineConfigFor(key), accelParamsFor(key),
		key.Scale, key.Faults.Name)
}

// --- fault plan: faultPlanFor -----------------------------------------------
// Fed by Seed, Scale and Faults only.

// faultPlanFor is the fault schedule a run of key injects (nil without
// Faults). It is derived from the config's base Seed, not the per-run
// machine seed, so every mode and strategy of one config experiences the
// identical schedule and stays comparable.
func faultPlanFor(key RunKey) *faults.Plan {
	if key.Faults.Name == "" {
		return nil
	}
	return faults.NewPlan(key.Seed, key.Faults.Scaled(key.Scale))
}

// machineConfigFor is the machine configuration a run of key uses (with its
// derived seed), shared by the run itself and by every address, so an
// address always reflects the configuration simulated.
func machineConfigFor(key RunKey) machine.Config {
	mcfg := workload.DefaultOptions().Machine
	mcfg.Mode = key.Mode
	mcfg.Seed = key.DeriveSeed()
	if key.L2 > 0 {
		mcfg.Mem = mcfg.Mem.WithL2Size(key.L2)
	}
	if key.InOrder {
		mcfg.Core = machine.CoreInOrder
	}
	mcfg.WithCaches = !key.NoCaches
	if key.TLB {
		mcfg.Mem = mcfg.Mem.WithTLB()
	}
	if key.Prefetch {
		mcfg.Mem = mcfg.Mem.WithPrefetch()
	}
	return mcfg
}

// accelParamsFor is the acceleration parameter set an Accelerated key encodes.
func accelParamsFor(key RunKey) core.Params {
	params := core.DefaultParams()
	params.Strategy = key.Strategy
	if key.Watchdog {
		params.WatchdogThreshold = core.DefaultWatchdogThreshold
		params.WatchdogWindow = core.DefaultWatchdogWindow
	}
	return params
}

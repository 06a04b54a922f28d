package experiments

import (
	"fmt"
	"strings"
	"testing"

	"fssim/internal/core"
	"fssim/internal/faults"
	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/transfer"
)

// mustSample parses a sampling spec the way a front-end's edge does.
func mustSample(t testing.TB, s string) sample.Spec {
	t.Helper()
	sp, err := sample.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// mustFaults looks up a fault plan the way a front-end's edge does.
func mustFaults(t testing.TB, name string) faults.Spec {
	t.Helper()
	sp, err := faults.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// planOf renders a key's fault schedule as its event count and first event
// ("" without Faults).
func planOf(k RunKey) string {
	p := faultPlanFor(k)
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%d %+v", len(p.Events), p.Events[0])
}

// TestRunKeyKnownAnswers pins every projection of a fixed table of keys to
// literals computed before RunKey carried typed Strategy and Watchdog fields
// (when both were packed into an opts word): derived seeds, key strings,
// the server's public run ids, and the learn, replay and family addresses of
// Accelerated keys. Reproducing them is what keeps existing goldens, warm
// directories and run ids valid. The machine-variant rows at the end were
// computed when those fields joined the key; they pin the variant encoding.
// The faults-storm row and the plan column were computed when Faults, Sample
// and Transfer were still strings (the plan then built in runOptions); they
// pin the typed specs to the same identities and the same fault schedule.
func TestRunKeyKnownAnswers(t *testing.T) {
	smp, mild, storm := mustSample(t, "default"), mustFaults(t, "mild"), mustFaults(t, "storm")
	store, l2Donor := transfer.Spec{Store: true}, transfer.Spec{L2: 524288}
	// Every config at seed 1 and scale 1 under one plan sees one schedule,
	// whatever its benchmark, mode or strategy.
	plans := map[string]string{
		"faults-mild":      "128 {At:4234691 Kind:net-burst Dur:0 Mag:32768}",
		"full-faults-mild": "128 {At:4234691 Kind:net-burst Dur:0 Mag:32768}",
		"faults-storm":     "2052 {At:2119813 Kind:irq-burst Dur:0 Mag:121}",
		"server-accel":     "2052 {At:1255855 Kind:disk-spike Dur:1250000 Mag:20}",
	}
	accel := func(s core.Strategy, edit func(*RunKey)) RunKey {
		k := RunKey{Bench: "ab-rand", Mode: machine.Accelerated, Scale: 1, Seed: 1, Strategy: s}
		if edit != nil {
			edit(&k)
		}
		return k
	}
	stat := func(edit func(*RunKey)) RunKey { return accel(core.Statistical, edit) }
	for _, c := range []struct {
		name                              string
		key                               RunKey
		seed                              int64
		str, id                           string
		learn, replay, xferReplay, family string // Accelerated keys only
	}{
		{"full", RunKey{Bench: "ab-rand", Mode: machine.FullSystem, Scale: 1, Seed: 1},
			4304370668613885802, "ab-rand/App+OS/L2=0/scale=1", "r225d8c18617903c5", "", "", "", ""},
		{"app-only", RunKey{Bench: "ab-rand", Mode: machine.AppOnly, Scale: 1, Seed: 1},
			5573128244890965947, "ab-rand/App Only/L2=0/scale=1", "r9f405677c0a94ea0", "", "", "", ""},
		{"accel-bestmatch", accel(core.BestMatch, nil),
			1430783566193454055, "ab-rand/App+OS Pred/L2=0/scale=1/opts=1", "r6771c5b40b148ec9",
			"c6956275396cb50a", "d6bb3bede9d19347", "d676789c0d744475", "81661623c8e2bc87"},
		{"accel-eager", accel(core.Eager, nil),
			1430784665705082266, "ab-rand/App+OS Pred/L2=0/scale=1/opts=2", "re25fafd385f86f2a",
			"f62c0cd870bada50", "f8b19a4142b7c615", "eaac44edd24ce99b", "01be832c6c0cdb0b"},
		{"accel-delayed", accel(core.Delayed, nil),
			1430785765216710477, "ab-rand/App+OS Pred/L2=0/scale=1/opts=3", "r4982276919a6ab7b",
			"b70ec60f0cbcbc2e", "a9e7be385288cc44", "84a610b91a44b942", "283c01ba1ecb2ffd"},
		{"accel-statistical", stat(nil),
			1430778068635313000, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4", "r753c86e04e48bd44",
			"f846b41eb2edd889", "4ff09e0b3d2527a0", "3ccda08e46877386", "976fd7d1a66932e6"},
		{"watchdog", stat(func(k *RunKey) { k.Watchdog = true }),
			4478673180723930652, "ab-rand/App+OS Pred/L2=0/scale=1/opts=260", "rbb13e464b8c048fc",
			"1b2b078c405fefab", "3ef20ee5c1152fc2", "4447c67c5201d3b0", "5c974ec8ba348038"},
		{"faults-mild", stat(func(k *RunKey) { k.Faults = mild }),
			7423940730223700110, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/faults=mild", "rdb4f35a01a6dab7f",
			"a1a72ca35d856617", "8681056555def896", "bfdafcccad96b23c", "e9f0c8c566ae27f0"},
		{"faults-storm", stat(func(k *RunKey) { k.Faults = storm }),
			1458536165161501933, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/faults=storm", "r03dc1c782850d3c2",
			"9becd7ab151d0178", "fc8a95a85665f632", "9260ca4a9724e6e0", "1f364911844fb0ff"},
		{"full-faults-mild", RunKey{Bench: "du", Mode: machine.FullSystem, Scale: 1, Seed: 1, Faults: mild},
			8711661962494965972, "du/App+OS/L2=0/scale=1/faults=mild", "r6840d52c84f9d35a", "", "", "", ""},
		{"sample-default", stat(func(k *RunKey) { k.Sample = smp }),
			1430778068635313000,
			"ab-rand/App+OS Pred/L2=0/scale=1/opts=4/sample=budget=8,min=2,pilot=64,range=0.05,refresh=64", "r6690008fb8b09cb3",
			"f846b41eb2edd889", "a63a20ad5812217f", "288c5e138da1589d", "976fd7d1a66932e6"},
		{"full-sample-default", RunKey{Bench: "gzip", Mode: machine.FullSystem, Scale: 1, Seed: 1, Sample: smp},
			7902029563080955783,
			"gzip/App+OS/L2=0/scale=1/sample=budget=8,min=2,pilot=64,range=0.05,refresh=64", "r42b6751642fdcc8f", "", "", "", ""},
		{"transfer-l2", stat(func(k *RunKey) { k.Transfer = l2Donor }),
			1430778068635313000, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/transfer=l2=524288", "r34e32d2dca346637",
			"23b584fde28b9812", "903583a2b448c482", "149eacbf512ca1f0", "976fd7d1a66932e6"},
		{"transfer-store", stat(func(k *RunKey) { k.Transfer = store }),
			1430778068635313000, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/transfer=store", "r35884ffdbbaf9768",
			"55e0819a91e577d7", "11bef62404c24e87", "99da273b710b7b35", "976fd7d1a66932e6"},
		{"l2-2mb", stat(func(k *RunKey) { k.L2 = 2 << 20 }),
			1984498098004477098, "ab-rand/App+OS Pred/L2=2097152/scale=1/opts=4", "r46bd5dd90c48aea6",
			"bcc349ea6382d3ae", "617947540efd9fbe", "63db3405e2b8e454", "976fd7d1a66932e6"},
		{"full-l2-512k", RunKey{Bench: "iperf", Mode: machine.FullSystem, L2: 512 << 10, Scale: 1, Seed: 1},
			2854828147794151856, "iperf/App+OS/L2=524288/scale=1", "r3892e73f3a7638fd", "", "", "", ""},
		{"scale-0.25", stat(func(k *RunKey) { k.Scale = 0.25 }),
			2571132278958195518, "ab-rand/App+OS Pred/L2=0/scale=0.25/opts=4", "r0da8c15baba12e2c",
			"052f9a271e044537", "0aa841f4eb212c75", "8de44c8f424f977b", "2e3a8d249f9633d0"},
		{"seed-7", stat(func(k *RunKey) { k.Seed = 7 }),
			5328760094881150434, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4", "r753c84e04e48b9de",
			"f846b41eb2edd889", "2ad859e166bc1967", "eeec50f51a4ab115", "976fd7d1a66932e6"},
		{"server-accel", RunKey{Bench: "du", Mode: machine.Accelerated, Scale: 0.5, Seed: 3,
			Strategy: core.Eager, Watchdog: true, Faults: storm, Transfer: store},
			5730964935218643843, "du/App+OS Pred/L2=0/scale=0.5/opts=258/faults=storm/transfer=store", "rdddd4bc85498d057",
			"5ad0bc4b0183df91", "148351f8dc7df2bb", "6c03fde362859111", "7059680dc8338381"},
		{"inorder", stat(func(k *RunKey) { k.InOrder = true }),
			7909127825977035101, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/machine=inorder", "refc07b96052f190a",
			"f1b8a240cb10e9f8", "5260a498360a9924", "8203529e6b819822", "b94a346e76671e39"},
		{"nocaches", stat(func(k *RunKey) { k.NoCaches = true }),
			7567583633969731564, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/machine=nocaches", "rabcefbc53167b17d",
			"e4720e3ac9a8b0ee", "26b51e4ff4689c21", "525164dcf03ba96f", "0355793cfcde03c5"},
		{"tlb", stat(func(k *RunKey) { k.TLB = true }),
			2125052324072395586, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/machine=tlb", "rb37f396e3884bf87",
			"efe480e47a071c38", "bb9dc5ceff58df72", "442d56ecf67c4ea0", "5365d2edf9fb93ff"},
		{"prefetch", stat(func(k *RunKey) { k.Prefetch = true }),
			2375986139560108507, "ab-rand/App+OS Pred/L2=0/scale=1/opts=4/machine=prefetch", "rffa6cdf1d86391c0",
			"b0c5f7fdf9b7cbae", "3c9acd1e07562a88", "62492641fb8bdabe", "012775efb2eb0b53"},
	} {
		k := c.key.Normalized()
		if k != c.key {
			t.Errorf("%s: key is not in normal form: %+v", c.name, c.key)
		}
		check := func(what string, got, want any) {
			if got != want {
				t.Errorf("%s: %s = %v, want %v", c.name, what, got, want)
			}
		}
		check("DeriveSeed", k.DeriveSeed(), c.seed)
		check("String", k.String(), c.str)
		check("ID", k.ID(), c.id)
		check("plan", planOf(k), plans[c.name])
		if k.Mode != machine.Accelerated {
			continue
		}
		check("learn", fmt.Sprintf("%016x", warmLearnHash(k)), c.learn)
		check("replay", fmt.Sprintf("%016x", warmReplayHash(k, 0)), c.replay)
		check("replay with provenance", fmt.Sprintf("%016x", warmReplayHash(k, 0x0123456789abcdef)), c.xferReplay)
		check("family", fmt.Sprintf("%016x", familyHash(k)), c.family)
	}
}

// projections are the identities of a key, named by the columns of the
// table on RunKey; "key" is the normalized struct itself (the memo-cache
// map key).
var projections = []struct {
	name string
	of   func(RunKey) string
}{
	{"key", func(k RunKey) string { return fmt.Sprintf("%#v", k) }},
	{"seed", func(k RunKey) string { return fmt.Sprint(k.DeriveSeed()) }},
	{"String", RunKey.String},
	{"ID", RunKey.ID},
	{"learn", func(k RunKey) string { return fmt.Sprint(warmLearnHash(k)) }},
	{"replay", func(k RunKey) string { return fmt.Sprint(warmReplayHash(k, 0), warmReplayHash(k, 0xfeed)) }},
	{"family", func(k RunKey) string { return fmt.Sprint(familyHash(k)) }},
	{"plan", planOf},
}

// feeds is the table on RunKey as data: the projections each field moves.
// On a key that is not Accelerated, Strategy and Watchdog move nothing; on a
// key without Faults, Seed and Scale do not move the plan.
var feeds = map[string]string{
	"Bench":    "key seed String ID learn replay family",
	"Mode":     "key seed String ID learn replay family",
	"L2":       "key seed String ID learn replay",
	"Scale":    "key seed String ID learn replay family plan",
	"Seed":     "key seed ID replay plan",
	"Strategy": "key seed String ID learn replay family",
	"Watchdog": "key seed String ID learn replay family",
	"Faults":   "key seed String ID learn replay family plan",
	"Sample":   "key String ID replay",
	"Transfer": "key String ID learn replay",
	"InOrder":  "key seed String ID learn replay family",
	"NoCaches": "key seed String ID learn replay family",
	"TLB":      "key seed String ID learn replay family",
	"Prefetch": "key seed String ID learn replay family",
}

var fields = []string{"Bench", "Mode", "L2", "Scale", "Seed", "Strategy", "Watchdog", "Faults", "Sample", "Transfer",
	"InOrder", "NoCaches", "TLB", "Prefetch"}

// FuzzRunKeyProjections builds a normalized key, changes one field, and
// checks that each projection moves if and only if the table on RunKey says
// the field feeds it. It also pins Normalized: idempotent, and every
// default applied.
func FuzzRunKeyProjections(f *testing.F) {
	for field := range fields {
		for _, mode := range []uint8{uint8(machine.FullSystem), uint8(machine.Accelerated)} {
			f.Add(uint8(0), mode, uint8(1), uint8(0), int64(0), uint8(3), false,
				uint8(1), uint8(1), uint8(1), uint8(field), uint64(field), uint8(field))
		}
	}
	benches := []string{"ab-rand", "du", "gzip", "iperf"}
	l2s := []int{0, defaultL2(), 512 << 10, 2 << 20, 4 << 20}
	scales := []float64{0, -1, 0.1, 0.25, 1, 2}
	plans := []faults.Spec{{}, mustFaults(f, "mild"), mustFaults(f, "storm")}
	samples := []sample.Spec{{}, mustSample(f, "default"), mustSample(f, "fast")}
	directives := []transfer.Spec{{}, {Store: true}, {L2: 524288}}

	f.Fuzz(func(t *testing.T, bench, mode, l2, scale uint8, seed int64, strat uint8, watchdog bool,
		plan, smp, xfer, field uint8, pick uint64, variants uint8) {
		raw := RunKey{
			Bench: benches[int(bench)%len(benches)], Mode: machine.SimMode(mode % 3),
			L2: l2s[int(l2)%len(l2s)], Scale: scales[int(scale)%len(scales)], Seed: seed,
			Strategy: core.Strategy(strat % 4), Watchdog: watchdog,
			Faults: plans[int(plan)%len(plans)], Sample: samples[int(smp)%len(samples)],
			Transfer: directives[int(xfer)%len(directives)],
			InOrder:  variants&1 != 0, NoCaches: variants&2 != 0,
			TLB: variants&4 != 0, Prefetch: variants&8 != 0,
		}
		base := raw.Normalized()
		if base.Normalized() != base {
			t.Fatalf("Normalized is not idempotent on %#v", raw)
		}
		if base.L2 == defaultL2() || base.Scale <= 0 || base.Seed == 0 ||
			(base.Mode != machine.Accelerated && (base.Strategy != 0 || base.Watchdog)) {
			t.Fatalf("Normalized left a default unapplied: %#v -> %#v", raw, base)
		}

		// Change exactly one field to a value that survives normalization.
		name := fields[int(field)%len(fields)]
		mut := base
		choose := func(n int) int { return int(pick % uint64(n)) }
		switch name {
		case "Bench":
			mut.Bench = benches[choose(len(benches))]
		case "Mode":
			mut.Mode = machine.SimMode(choose(3))
		case "L2":
			mut.L2 = []int{0, 512 << 10, 2 << 20, 4 << 20}[choose(4)]
		case "Scale":
			mut.Scale = scales[2+choose(len(scales)-2)]
		case "Seed":
			mut.Seed = int64(pick>>1) + 1
		case "Strategy":
			mut.Strategy = core.Strategy(choose(4))
		case "Watchdog":
			mut.Watchdog = !mut.Watchdog
		case "Faults":
			mut.Faults = plans[choose(len(plans))]
		case "Sample":
			mut.Sample = samples[choose(len(samples))]
		case "Transfer":
			mut.Transfer = directives[choose(len(directives))]
		case "InOrder":
			mut.InOrder = !mut.InOrder
		case "NoCaches":
			mut.NoCaches = !mut.NoCaches
		case "TLB":
			mut.TLB = !mut.TLB
		case "Prefetch":
			mut.Prefetch = !mut.Prefetch
		}
		if mut == base || (mut.Mode != machine.Accelerated && (name == "Strategy" || name == "Watchdog")) {
			// Either the pick repeated the current value, or the field
			// only exists on Accelerated keys: nothing may move.
			mut = mut.Normalized()
			for _, p := range projections {
				if p.of(mut) != p.of(base) {
					t.Fatalf("%s on %+v moved %s without changing the run", name, base, p.name)
				}
			}
			return
		}
		mut = mut.Normalized()
		want := strings.Fields(feeds[name])
		for _, p := range projections {
			moved := p.of(mut) != p.of(base)
			fed := false
			for _, w := range want {
				fed = fed || w == p.name
			}
			if p.name == "plan" && base.Faults.Name == "" && (name == "Seed" || name == "Scale") {
				fed = false
			}
			if moved != fed {
				t.Errorf("%s: %+v -> %+v: %s moved=%v, table says %v", name, base, mut, p.name, moved, fed)
			}
		}
	})
}

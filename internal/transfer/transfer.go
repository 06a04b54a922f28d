// Package transfer warm-starts a PLT for one machine configuration from the
// learned snapshot of a *similar* configuration, so a design-space sweep pays
// the full learning phase only at its first point.
//
// Reuse so far has been all-or-nothing: pltstore.LearnHash addresses a
// snapshot by the exact machine config, so changing one swept parameter (L2
// size, core width) orphans every learned table. This package relaxes that in
// three controlled steps:
//
//   - FamilyHash addresses the *sweep family*: it is LearnHash with the
//     conventionally swept parameters (cache geometry sizes/associativities,
//     core widths, memory timing) zeroed out, so every point of an L2 or
//     width sweep over one workload shares an address.
//   - Distance is a typed metric over exactly those swept parameters: the
//     weighted sum of |log2| capacity/width ratios between two Coords. A hard
//     cutoff (MaxDistance) rejects transfers between configs too far apart
//     for the analytic scaling model to be trusted; rejection is always
//     explicit (counted by the scheduler), never silent.
//   - Rescale (scale.go) converts the donor's per-service clusters into
//     low-confidence priors for the recipient: moment statistics are rescaled
//     by the fitted model and their sample counts capped, so the first
//     detailed intervals of the recipient dominate the priors and the
//     divergence watchdog demotes any transfer the model got wrong.
package transfer

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"fssim/internal/core"
	"fssim/internal/machine"
)

// Version is the transfer-format version, mixed into FamilyHash and
// TransferHash so any change to the family definition or the scaling model
// invalidates cross-version provenance rather than mismatching silently.
const Version = 1

// Coords are the swept machine parameters — the axes a design-space sweep
// moves along, and exactly the fields FamilyHash excludes. They are stored in
// every snapshot (pltstore format v2) so a recipient can measure its distance
// to a donor without reconstructing the donor's full machine config.
type Coords struct {
	L1ISize, L1IAssoc int
	L1DSize, L1DAssoc int
	L2Size, L2Assoc   int
	FetchWidth        int
	IssueWidth        int
	RetireWidth       int
	ROBSize           int
	MemLatency        int
	BusOccupancy      int
}

// FromConfig extracts the swept coordinates of a machine config.
func FromConfig(mcfg machine.Config) Coords {
	return Coords{
		L1ISize: mcfg.Mem.L1I.Size, L1IAssoc: mcfg.Mem.L1I.Assoc,
		L1DSize: mcfg.Mem.L1D.Size, L1DAssoc: mcfg.Mem.L1D.Assoc,
		L2Size: mcfg.Mem.L2.Size, L2Assoc: mcfg.Mem.L2.Assoc,
		FetchWidth:  mcfg.CPU.FetchWidth,
		IssueWidth:  mcfg.CPU.IssueWidth,
		RetireWidth: mcfg.CPU.RetireWidth,
		ROBSize:     mcfg.CPU.ROBSize,
		MemLatency:  mcfg.Mem.MemLatency, BusOccupancy: mcfg.Mem.BusOccupancy,
	}
}

// FamilyHash addresses the sweep family a run belongs to. It is the exact
// analog of pltstore.LearnHash — same inputs, same seed-independence — except
// the swept parameters (Coords) are zeroed out of the machine config before
// hashing, so two configs that differ only along sweep axes share a family.
// Everything else that shapes learned behavior (workload, scale, fault plan,
// learner parameters, block sizes, hit latencies, ablation switches) still
// separates families: transfer never crosses a boundary the scaling model
// has no account of.
func FamilyHash(bench string, mcfg machine.Config, p core.Params, scale float64, faultPlan string) uint64 {
	mcfg.Seed = 0
	mcfg.CPU.FetchWidth, mcfg.CPU.IssueWidth = 0, 0
	mcfg.CPU.RetireWidth, mcfg.CPU.ROBSize = 0, 0
	mcfg.Mem.L1I.Size, mcfg.Mem.L1I.Assoc = 0, 0
	mcfg.Mem.L1D.Size, mcfg.Mem.L1D.Assoc = 0, 0
	mcfg.Mem.L2.Size, mcfg.Mem.L2.Assoc = 0, 0
	mcfg.Mem.MemLatency, mcfg.Mem.BusOccupancy = 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-family|v%d|bench=%s|scale=%x|faults=%s|machine=%+v|params=%+v",
		Version, bench, math.Float64bits(scale), faultPlan, mcfg, p)
	return h.Sum64()
}

// MaxDistance is the eligibility cutoff: donors farther than this (in
// Distance units — weighted octaves of parameter change) are rejected. At
// the default weights this admits an L2 sweep up to 4x in either direction
// plus an associativity step (1MB→2MB = 1.0, 1MB→4MB = 2.0) but rejects
// e.g. a 16x capacity jump (4.0), where the sqrt-capacity miss model's error
// would swamp the priors' value.
const MaxDistance = 2.5

// Distance returns the typed parameter distance between two coordinate
// vectors: sum over coordinates of weight * |log2(a/b)| — capacity and width
// ratios count full octaves; associativity, window depth and memory timing,
// whose performance effect per octave is flatter, count half. Identical coords
// (including both-zero fields, e.g. cacheless configs) are at distance 0; a
// coordinate present on one side but zero on the other makes the pair
// incomparable and the distance +Inf — structurally different machines are
// never eligible, whatever the cutoff.
func Distance(a, b Coords) float64 {
	type term struct {
		x, y int
		w    float64
	}
	terms := [...]term{
		{a.L1ISize, b.L1ISize, 1.0}, {a.L1IAssoc, b.L1IAssoc, 0.5},
		{a.L1DSize, b.L1DSize, 1.0}, {a.L1DAssoc, b.L1DAssoc, 0.5},
		{a.L2Size, b.L2Size, 1.0}, {a.L2Assoc, b.L2Assoc, 0.5},
		{a.FetchWidth, b.FetchWidth, 1.0},
		{a.IssueWidth, b.IssueWidth, 1.0},
		{a.RetireWidth, b.RetireWidth, 1.0},
		{a.ROBSize, b.ROBSize, 0.5},
		{a.MemLatency, b.MemLatency, 0.5},
		{a.BusOccupancy, b.BusOccupancy, 0.5},
	}
	d := 0.0
	for _, t := range terms {
		if t.x == t.y { // includes the 0,0 case: absent on both sides
			continue
		}
		if t.x <= 0 || t.y <= 0 {
			return math.Inf(1)
		}
		d += t.w * math.Abs(math.Log2(float64(t.x)/float64(t.y)))
	}
	return d
}

// Eligible reports whether a donor at the given distance may be imported.
func Eligible(d float64) bool { return d <= MaxDistance }

// Spec is a parsed transfer directive. At most one form is set:
//
//   - Store: take the nearest eligible donor from the warm store's family
//     index (fsbench -transfer, fssimd -transfer).
//   - L2 > 0: take the in-invocation sibling run whose L2 capacity is L2
//     bytes as the donor (the sweep experiment's explicit pairing).
//
// The zero Spec is no directive (a cold start) and renders as "".
type Spec struct {
	Store bool
	L2    int
}

// ParseSpec parses a transfer directive: "store" or "l2=<bytes>". The empty
// string is not a directive (callers represent "no transfer" by the zero
// Spec) and is rejected here.
func ParseSpec(s string) (Spec, error) {
	switch {
	case s == "store":
		return Spec{Store: true}, nil
	case strings.HasPrefix(s, "l2="):
		n, err := strconv.Atoi(s[len("l2="):])
		if err != nil || n <= 0 {
			return Spec{}, fmt.Errorf("transfer: bad donor L2 size in %q", s)
		}
		return Spec{L2: n}, nil
	default:
		return Spec{}, fmt.Errorf("transfer: unknown directive %q (want \"store\" or \"l2=<bytes>\")", s)
	}
}

// String renders the canonical directive form: ParseSpec(s.String()) == s
// for every directive, and "" for the zero Spec.
func (s Spec) String() string {
	switch {
	case s.Store:
		return "store"
	case s.L2 > 0:
		return "l2=" + strconv.Itoa(s.L2)
	}
	return ""
}

// Package sample implements the stratified-sampling fast path for
// application intervals: the user-mode execution stretches between OS
// services are clustered by behavior signature (reusing the PLT's scaled
// clusters over instruction counts), a budgeted number of representatives
// per stratum is simulated in detail, and the rest are fast-forwarded in
// emulation mode with per-stratum CPI extrapolation and a variance-derived
// 95% confidence interval on every extrapolated figure.
//
// The paper's PLT machinery accelerates only the OS side of a run; this
// package multiplies that by an application-side speedup, following the
// two-phase stratified-sampling and cache-representativeness exemplars in
// PAPERS.md: cluster first, then sample within strata with error bars.
//
// Determinism: a Sampler is driven from exactly one machine's simulation
// goroutine, every decision is a pure function of (spec, seed, observation
// history), and the seed-derived refresh pick uses a stateless hash — so
// sampled runs are byte-identical at any scheduler parallelism, the same
// property every other subsystem guarantees.
package sample

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec configures one sampling policy; build one with DefaultSpec or
// ParseSpec. The zero value is "no sampling": it renders as "" and no
// sampler runs it. A Spec is comparable and is part of the run's cache key
// (experiments.RunKey.Sample), so two textual spellings of the same policy
// parse to one value and share one simulation and one byte-identical table.
type Spec struct {
	// Budget is how many representatives per stratum are simulated in detail
	// before the stratum's remaining members are extrapolated.
	Budget int
	// MinPerStratum is the minimum detailed members a stratum needs before
	// its own CPI moments are trusted; thinner strata extrapolate from the
	// pooled (all-strata) CPI and are reported as under-min.
	MinPerStratum int
	// Pilot is the number of initial application intervals always simulated
	// in detail — the pilot phase that seeds the strata, mirroring the PLT's
	// initial learning window.
	Pilot int
	// RangeFrac is the stratum half-width as a fraction of the centroid
	// (the PLT's scaled-cluster range, paper §4.2).
	RangeFrac float64
	// Refresh sets the steady-state refresh rate: roughly one seed-chosen
	// detailed representative per Refresh intervals guards against phase
	// drift. 0 disables refreshes.
	Refresh int
	// Mix extends the stratum signature with the instruction mix
	// (loads/stores/branches), trading coverage for tighter strata.
	Mix bool
}

// DefaultSpec returns the "default" preset.
func DefaultSpec() Spec {
	return Spec{Budget: 8, MinPerStratum: 2, Pilot: 64, RangeFrac: 0.05, Refresh: 64}
}

// presets are the named starting points; every field remains overridable via
// the key=value form.
var presets = map[string]Spec{
	"default": DefaultSpec(),
	"fast":    {Budget: 4, MinPerStratum: 2, Pilot: 32, RangeFrac: 0.08, Refresh: 128},
	"precise": {Budget: 16, MinPerStratum: 4, Pilot: 128, RangeFrac: 0.04, Refresh: 32},
}

// PresetNames returns the preset names in sorted order.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseSpec parses a sampling spec: a preset name ("default", "fast",
// "precise"), a comma-separated key=value list (budget, min, pilot, range,
// refresh, mix), or a preset followed by overrides ("fast,budget=6"). The
// empty string is rejected — callers represent "no sampling" by the zero
// Spec, without calling ParseSpec at all.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("sample: empty spec (want a preset %s or key=value list)",
			strings.Join(PresetNames(), "/"))
	}
	sp := DefaultSpec()
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Spec{}, fmt.Errorf("sample: empty element in spec %q", s)
		}
		if !strings.Contains(part, "=") {
			p, ok := presets[strings.ToLower(part)]
			if !ok {
				return Spec{}, fmt.Errorf("sample: unknown preset %q (want %s)",
					part, strings.Join(PresetNames(), ", "))
			}
			if i != 0 {
				return Spec{}, fmt.Errorf("sample: preset %q must come first in %q", part, s)
			}
			sp = p
			continue
		}
		k, v, _ := strings.Cut(part, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch strings.ToLower(k) {
		case "budget":
			sp.Budget, err = strconv.Atoi(v)
		case "min":
			sp.MinPerStratum, err = strconv.Atoi(v)
		case "pilot":
			sp.Pilot, err = strconv.Atoi(v)
		case "range":
			sp.RangeFrac, err = strconv.ParseFloat(v, 64)
		case "refresh":
			sp.Refresh, err = strconv.Atoi(v)
		case "mix":
			sp.Mix, err = strconv.ParseBool(v)
		default:
			return Spec{}, fmt.Errorf("sample: unknown key %q in spec %q (want budget, min, pilot, range, refresh or mix)", k, s)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("sample: bad value for %s in spec %q: %v", k, s, err)
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate rejects specs no sampler can run.
func (s Spec) Validate() error {
	if s.Budget < 1 {
		return fmt.Errorf("sample: budget must be >= 1, got %d", s.Budget)
	}
	if s.MinPerStratum < 1 || s.MinPerStratum > s.Budget {
		return fmt.Errorf("sample: min must be in [1, budget=%d], got %d", s.Budget, s.MinPerStratum)
	}
	if s.Pilot < 1 {
		return fmt.Errorf("sample: pilot must be >= 1, got %d", s.Pilot)
	}
	// Written to fail on NaN, which compares false both ways: a NaN range
	// would also make the spec unequal to itself as a cache key.
	if !(s.RangeFrac > 0 && s.RangeFrac <= 0.5) {
		return fmt.Errorf("sample: range must be in (0, 0.5], got %g", s.RangeFrac)
	}
	if s.Refresh < 0 {
		return fmt.Errorf("sample: refresh must be >= 0, got %d", s.Refresh)
	}
	return nil
}

// String renders the spec in canonical form: all fields, fixed order, so any
// two spellings of one policy produce identical key strings and run ids. The
// zero Spec renders as "", and ParseSpec(s.String()) == s for every valid s.
func (s Spec) String() string {
	if s == (Spec{}) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "budget=%d,min=%d,pilot=%d,range=%s,refresh=%d",
		s.Budget, s.MinPerStratum, s.Pilot,
		strconv.FormatFloat(s.RangeFrac, 'g', -1, 64), s.Refresh)
	if s.Mix {
		b.WriteString(",mix=true")
	}
	return b.String()
}

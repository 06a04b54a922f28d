package sample

import (
	"strings"
	"testing"
)

func TestParseSpecPresets(t *testing.T) {
	for _, name := range PresetNames() {
		sp, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("preset %q rejected: %v", name, err)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if sp, err := ParseSpec("default"); err != nil || sp != DefaultSpec() {
		t.Errorf("ParseSpec(default) = %+v, %v; want DefaultSpec", sp, err)
	}
	// Presets are case-insensitive; key=value lists override preset fields.
	sp, err := ParseSpec("Fast,budget=6")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Budget != 6 || sp.Pilot != presets["fast"].Pilot {
		t.Errorf("preset+override = %+v, want fast with budget 6", sp)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                // empty: "no sampling" is the absence of a spec
		"nosuchpreset",    // unknown preset
		"budget=4,fast",   // preset after overrides
		"budget=4,,min=2", // empty element
		"budget=x",        // unparsable value
		"budget=0",        // budget >= 1
		"min=0",           // min >= 1
		"budget=4,min=5",  // min <= budget
		"pilot=0",         // pilot >= 1
		"range=0",         // range in (0, 0.5]
		"range=0.6",       //
		"range=NaN",       // NaN compares false both ways
		"range=-NaN",      //
		"range=+Inf",      //
		"range=-Inf",      //
		"refresh=-1",      // refresh >= 0
		"color=red",       // unknown key
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

// TestCanonicalStable pins the cache-key contract: every spelling of one
// policy parses to the same Spec, whose String is a fixed point (it parses
// back to the same Spec and renders the same string again).
func TestCanonicalStable(t *testing.T) {
	canon := func(s string) string {
		t.Helper()
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return sp.String()
	}
	def := canon("default")
	if spelled := canon(" budget=8, min=2 ,pilot=64,range=0.05,refresh=64 "); def != spelled {
		t.Errorf("default %q != spelled-out %q", def, spelled)
	}
	if again := canon(def); again != def {
		t.Errorf("String not a fixed point: %q -> %q", def, again)
	}
	if strings.Contains(def, "mix") {
		t.Errorf("mix=false must not render: %q", def)
	}
	if withMix := canon("default,mix=true"); !strings.HasSuffix(withMix, ",mix=true") {
		t.Errorf("mix=true missing from canonical form: %q", withMix)
	}
	if s := (Spec{}).String(); s != "" {
		t.Errorf("zero Spec renders %q, want \"\" (no sampling)", s)
	}
}

// FuzzSampleSpec checks that every spec ParseSpec accepts can be a cache
// key: it equals itself (no NaN field), round-trips through its canonical
// String, and validates.
func FuzzSampleSpec(f *testing.F) {
	for _, s := range []string{"default", "fast,budget=6", "precise,mix=true", "range=0x1p-4",
		"budget=+3,min=1", "range=NaN", "range=1e-400", "refresh=0", "Fast, RANGE = .5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if sp != sp {
			t.Fatalf("ParseSpec(%q) = %+v is not equal to itself", s, sp)
		}
		if back, err := ParseSpec(sp.String()); err != nil || back != sp {
			t.Fatalf("ParseSpec(%q).String() = %q parses to (%+v, %v), want %+v", s, sp.String(), back, err, sp)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Validate rejects: %v", s, err)
		}
	})
}

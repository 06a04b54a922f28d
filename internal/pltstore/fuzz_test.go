package pltstore

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
)

// FuzzPLTSnapshotRoundTrip checks the codec's two safety properties at once:
//
//  1. Arbitrary bytes never panic the decoder — they either decode or fail
//     with a typed *FormatError; on success, re-encoding reproduces the
//     input bytes exactly (the format has one canonical encoding).
//  2. Arbitrary snapshot *states* — derived from the fuzz input via a
//     deterministic PRNG, including NaN/Inf floats and extreme counters the
//     semantic validator would reject — survive Encode -> Decode -> Encode
//     byte-identically. The codec is bit-exact below the validation layer.
//
// Property 1 also runs on the input sealed as a snapshot body (a valid
// header and checksum around it): raw bytes almost never pass the checksum,
// so only sealed bodies reach the decoder's structural checks.
func FuzzPLTSnapshotRoundTrip(f *testing.F) {
	valid := Encode(richSnapshot())
	f.Add([]byte{})
	f.Add([]byte("FSSIMPLT garbage that is not a real snapshot"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[12 : len(valid)-8]) // the body alone

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: decoding arbitrary bytes is total and typed.
		for _, in := range [][]byte{data, seal(data)} {
			snap, err := Decode(in)
			if err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("decode error %v is not a *FormatError", err)
				}
				if snap != nil {
					t.Fatal("decode returned a snapshot alongside an error")
				}
			} else if again := Encode(snap); !bytes.Equal(again, in) {
				t.Fatalf("decoded input re-encodes to different bytes (%d vs %d)", len(again), len(in))
			}
		}

		// Property 2: a generated state round-trips bit-exactly.
		gen := fuzzSnapshot(data)
		first := Encode(gen)
		decoded, err := Decode(first)
		if err != nil {
			t.Fatalf("generated snapshot failed to decode: %v", err)
		}
		if second := Encode(decoded); !bytes.Equal(first, second) {
			t.Fatalf("generated snapshot round trip not byte-identical (%d vs %d)", len(first), len(second))
		}
	})
}

// fuzzRand is a tiny deterministic PRNG (splitmix64) seeded from fuzz input,
// so generated states are reproducible from the corpus entry alone.
type fuzzRand struct{ s uint64 }

func (r *fuzzRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *fuzzRand) intn(n int) int { return int(r.next() % uint64(n)) }

// f64 returns an arbitrary bit pattern as a float — NaNs, infinities, and
// denormals included. The codec must carry all of them.
func (r *fuzzRand) f64() float64 { return math.Float64frombits(r.next()) }

// fuzzSnapshot builds a structurally encodable (not necessarily semantically
// valid) snapshot from the input bytes. It sets every field the codec
// carries. Integer fields that the decoder range-checks stay within int32
// (sweep coordinates within [0, MaxInt32]); everything else is unconstrained.
func fuzzSnapshot(data []byte) *Snapshot {
	r := &fuzzRand{s: 0x5eed}
	for _, b := range data {
		r.s = r.s*131 + uint64(b)
	}
	str := func(maxLen int) string {
		n := r.intn(maxLen + 1)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.next())
		}
		return string(b)
	}
	i32 := func() int { return int(int32(r.next())) }
	snap := &Snapshot{
		LearnHash:    r.next(),
		ReplayHash:   r.next(),
		Family:       r.next(),
		TransferHash: r.next(),
		Benchmark:    str(24),
		Key:          str(48),
		State:        &core.AccelState{},
	}
	for _, c := range coordFields(&snap.Coords) {
		*c = r.intn(math.MaxInt32 + 1)
	}
	snap.Stats = machine.Stats{
		Cycles: r.next(), Insts: r.next(), UserInsts: r.next(), OSInsts: r.next(),
		Intervals: r.next(), Emulated: r.next(), EmuInsts: r.next(), PredCycles: r.next(),
		Pred: machine.Prediction{
			Cycles: r.next(), L1IMisses: r.next(), L1DMisses: r.next(), L2Misses: r.next(),
			L1IAccesses: r.next(), L1DAccesses: r.next(), L2Accesses: r.next(), L2Writebacks: r.next(),
		},
		DRAM: r.next(), BrLookups: r.next(), BrMispreds: r.next(),
	}
	for _, c := range []*cache.Stats{&snap.Stats.Mem.L1I, &snap.Stats.Mem.L1D, &snap.Stats.Mem.L2} {
		*c = cache.Stats{
			Accesses: r.next(), Misses: r.next(), OSAccesses: r.next(), OSMisses: r.next(),
			Writebacks: r.next(), Evictions: r.next(), PollutionEv: r.next(),
		}
	}
	st := snap.State
	st.Params = core.Params{
		Strategy: core.Strategy(i32()), PMin: r.f64(), DoC: r.f64(), RangeFrac: r.f64(),
		WarmupSkip: i32(), LearnWindow: i32(), DelayedThreshold: i32(), MinEPOs: i32(),
		MovingWindow: i32(), FixedRange: r.f64(), MixSignature: r.intn(2) == 1,
		WatchdogThreshold: r.f64(), WatchdogWindow: i32(),
	}
	st.Deferred = r.intn(2) == 1
	for i, n := 0, r.intn(4); i < n; i++ {
		l := core.LearnerState{
			Service:   isa.ServiceID{Kind: isa.ServiceKind(r.next()), Num: uint16(r.next())},
			Phase:     i32(),
			Seen:      int64(r.next()),
			WarmLeft:  i32(),
			LearnLeft: i32(),
			RingPos:   i32(),
			NextOutID: i32(),
			WDPos:     i32(), WDLen: i32(), WDOut: i32(),
			HoldLeft: i32(), RearmSeen: i32(), RearmMatched: i32(),
			Learned: int64(r.next()), Predicted: int64(r.next()), OutlierN: int64(r.next()),
			Relearns: int64(r.next()), Degrades: int64(r.next()),
			ObsCycles: r.f64(), ObsInsts: r.f64(),
		}
		if n := r.intn(6); n > 0 {
			l.Ring = make([]int16, n)
			for j := range l.Ring {
				l.Ring[j] = int16(r.next())
			}
		}
		if n := r.intn(4); n > 0 {
			l.WDRing = make([]bool, n)
			for j := range l.WDRing {
				l.WDRing[j] = r.intn(2) == 1
			}
		}
		for j, m := 0, r.intn(3); j < m; j++ {
			o := core.OutlierState{ID: i32(), Centroid: r.f64(), N: int64(r.next())}
			for k, e := 0, r.intn(3); k < e; k++ {
				o.EPOs = append(o.EPOs, r.f64())
			}
			l.Outliers = append(l.Outliers, o)
		}
		for j, m := 0, r.intn(3); j < m; j++ {
			c := &core.Cluster{
				Centroid:    r.f64(),
				MixCentroid: [3]float64{r.f64(), r.f64(), r.f64()},
				N:           int64(r.next()),
			}
			for _, m := range []*stats.Moments{&c.Perf.Cycles, &c.Perf.L1IM, &c.Perf.L1DM,
				&c.Perf.L2M, &c.Perf.L1IA, &c.Perf.L1DA, &c.Perf.L2A, &c.Perf.L2WB, &c.Perf.IPC} {
				*m = stats.Moments{N: int64(r.next()), Mean: r.f64(), M2: r.f64()}
			}
			l.Table.Clusters = append(l.Table.Clusters, c)
		}
		st.Learners = append(st.Learners, l)
	}
	return snap
}

// FuzzTornSnapshot feeds arbitrary bytes — seeded with torn, truncated, and
// bit-flipped prefixes of a valid encoding — through the startup recovery
// sweep as the on-disk content of a plausible snapshot address. The sweep
// must never panic, never leave an unloadable file in the load path, and
// never import anything but a bit-exact valid snapshot; everything else is
// quarantined or ignored.
func FuzzTornSnapshot(f *testing.F) {
	ref := richSnapshot()
	valid := Encode(ref)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	tornFlip := append([]byte(nil), valid[:2*len(valid)/3]...)
	tornFlip[len(tornFlip)-1] ^= 0x01
	f.Add(tornFlip)

	bench, lh := ref.Benchmark, ref.LearnHash
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := Open(dir)
		if err := os.WriteFile(s.Path(bench, lh), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		got, lerr := s.Load(bench, lh)
		switch {
		case lerr == nil:
			// Imported: must be the bit-exact valid bytes, never a torn
			// variant that happened to slip through.
			if !bytes.Equal(Encode(got), data) {
				t.Fatalf("recovery imported bytes that differ from the file")
			}
			if rep.Quarantined != 0 {
				t.Fatalf("valid snapshot counted as quarantined: %+v", rep)
			}
		case errors.Is(lerr, ErrNotFound):
			// Quarantined or ignored: the file must be out of the load path
			// and counted.
			if rep.Quarantined != 1 {
				t.Fatalf("rejected bytes not counted: %+v", rep)
			}
		default:
			t.Fatalf("file survived the sweep but fails load: %v", lerr)
		}
	})
}

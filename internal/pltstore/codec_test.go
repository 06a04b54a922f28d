package pltstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
	"fssim/internal/transfer"
)

// fullSnapshot gives every snapshot field a distinct non-zero value, so a
// codec that drops, repeats or swaps two fields changes the encoding.
func fullSnapshot() *Snapshot {
	var n uint64
	u := func() uint64 { n++; return n }
	i := func() int { return int(u()) }
	i64 := func() int64 { return int64(u()) }
	f := func() float64 { return float64(u()) + 0.25 }
	cs := func() cache.Stats {
		return cache.Stats{Accesses: u(), Misses: u(), OSAccesses: u(), OSMisses: u(),
			Writebacks: u(), Evictions: u(), PollutionEv: u()}
	}
	mo := func() stats.Moments { return stats.Moments{N: i64(), Mean: f(), M2: f()} }
	s := &Snapshot{
		LearnHash: u(), ReplayHash: u(), Family: u(), TransferHash: u(),
		Coords: transfer.Coords{
			L1ISize: i(), L1IAssoc: i(), L1DSize: i(), L1DAssoc: i(), L2Size: i(), L2Assoc: i(),
			FetchWidth: i(), IssueWidth: i(), RetireWidth: i(), ROBSize: i(),
			MemLatency: i(), BusOccupancy: i(),
		},
		Benchmark: "full-bench",
		Key:       "full-bench/accel/L2=1048576/scale=0.5",
		Stats: machine.Stats{
			Cycles: u(), Insts: u(), UserInsts: u(), OSInsts: u(), Intervals: u(),
			Emulated: u(), EmuInsts: u(), PredCycles: u(),
			Pred: machine.Prediction{Cycles: u(), L1IMisses: u(), L1DMisses: u(), L2Misses: u(),
				L1IAccesses: u(), L1DAccesses: u(), L2Accesses: u(), L2Writebacks: u()},
			DRAM: u(), BrLookups: u(), BrMispreds: u(),
		},
		State: &core.AccelState{
			Params: core.Params{
				Strategy: core.Strategy(i()), PMin: f(), DoC: f(), RangeFrac: f(),
				WarmupSkip: i(), LearnWindow: i(), DelayedThreshold: i(), MinEPOs: i(),
				MovingWindow: i(), FixedRange: f(), MixSignature: true,
				WatchdogThreshold: f(), WatchdogWindow: i(),
			},
			Deferred: true,
		},
	}
	s.Stats.Mem.L1I, s.Stats.Mem.L1D, s.Stats.Mem.L2 = cs(), cs(), cs()
	for k := 0; k < 2; k++ {
		l := core.LearnerState{
			Service: isa.ServiceID{Kind: isa.ServiceKind(u()), Num: uint16(u())},
			Phase:   i(), Seen: i64(), WarmLeft: i(), LearnLeft: i(),
			Ring: []int16{int16(u()), int16(u())}, RingPos: i(),
			NextOutID: i(),
			Outliers: []core.OutlierState{
				{ID: i(), Centroid: f(), N: i64(), EPOs: []float64{f(), f()}},
			},
			WDRing: []bool{true, true}, WDPos: i(), WDLen: i(), WDOut: i(),
			HoldLeft: i(), RearmSeen: i(), RearmMatched: i(),
			Learned: i64(), Predicted: i64(), OutlierN: i64(), Relearns: i64(), Degrades: i64(),
			ObsCycles: f(), ObsInsts: f(),
		}
		for j := 0; j < 2; j++ {
			l.Table.Clusters = append(l.Table.Clusters, &core.Cluster{
				Centroid: f(), MixCentroid: [3]float64{f(), f(), f()}, N: i64(),
				Perf: core.Perf{Cycles: mo(), L1IM: mo(), L1DM: mo(), L2M: mo(),
					L1IA: mo(), L1DA: mo(), L2A: mo(), L2WB: mo(), IPC: mo()},
			})
		}
		s.State.Learners = append(s.State.Learners, l)
	}
	return s
}

// requireNonZero fails for every zero-valued leaf, empty list or nil pointer
// under v, so a field added to the snapshot types must be given a value in
// fullSnapshot before the known answer can pass.
func requireNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			t.Errorf("%s is nil", path)
			return
		}
		requireNonZero(t, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, v.Index(i), path+"["+strconv.Itoa(i)+"]")
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

// TestEncodeKnownAnswer pins the v2 wire bytes: the sha256 of the encoding
// of fullSnapshot followed by 256 generated snapshots. The warm-start golden
// pins only a byte count, which a codec swapping two fixed-width fields on
// both sides would keep; this hash does not. A deliberate format change
// bumps FormatVersion and re-pins it.
func TestEncodeKnownAnswer(t *testing.T) {
	full := fullSnapshot()
	requireNonZero(t, reflect.ValueOf(full), "Snapshot")
	h := sha256.New()
	h.Write(Encode(full))
	for i := 0; i < 256; i++ {
		h.Write(Encode(fuzzSnapshot([]byte{byte(i), 0x5a})))
	}
	const want = "b385be522681323e97468f4abc4a2cdc70909bb90e22613ca21fcaecc1c3b8c5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("encoding sha256 = %s, want %s", got, want)
	}
}

// TestCheckedInSnapshot replays a snapshot an earlier build wrote (`fssim
// -bench ab-rand -mode accel -scale 0.25 -warm-dir d`): it must decode,
// validate and re-encode byte for byte. A change that moves the format or a
// learn or replay address must re-pin this file on purpose.
func TestCheckedInSnapshot(t *testing.T) {
	const name = "ab-rand-052f9a271e044537.plt"
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := snap.Benchmark + "-" + FormatHash(snap.LearnHash) + ".plt"; got != name {
		t.Errorf("snapshot addresses %s, want %s", got, name)
	}
	if again := Encode(snap); !bytes.Equal(again, data) {
		t.Errorf("re-encoding differs from the file (%d vs %d bytes)", len(again), len(data))
	}
}

// seal frames a snapshot body as Encode does: magic and version before it,
// the checksum after it.
func seal(body []byte) []byte {
	b := append([]byte(nil), snapshotMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = append(b, body...)
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// The encoders below each write one value the decoder must refuse; every
// other value goes through the real encoder.

type overlongCount struct{ *encoder }

func (e overlongCount) count(n int, what string, limit uint64, minSize int) int {
	if what != "learner" {
		return e.encoder.count(n, what, limit, minSize)
	}
	e.buf = append(e.buf, byte(n)|0x80, 0) // n < 128 in two bytes, not one
	return n
}

type overCapCount struct{ *encoder }

func (e overCapCount) count(n int, what string, limit uint64, minSize int) int {
	if what != "learner" {
		return e.encoder.count(n, what, limit, minSize)
	}
	// Enough bytes follow that only the cap, not the bytes left, refuses it.
	e.buf = binary.AppendUvarint(e.buf, core.MaxSnapshotLearners+1)
	e.buf = append(e.buf, make([]byte, 8*(core.MaxSnapshotLearners+1))...)
	return 0
}

type badBoolean struct{ *encoder }

func (e badBoolean) boolean(v *bool, what string) { e.buf = append(e.buf, 2) }

type wideInteger struct{ *encoder }

func (e wideInteger) integer(v *int, what string) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 1<<31)
}

type wideCoord struct{ *encoder }

func (e wideCoord) coord(v *int) { e.buf = binary.AppendUvarint(e.buf, 1<<31) }

// TestDecodeRejects checks each structural refusal of the decoder on a
// snapshot whose checksum is intact, so only the decoder's own checks can
// catch it.
func TestDecodeRejects(t *testing.T) {
	frame := func(wrap func(*encoder) wire, trailing bool) []byte {
		e := &encoder{}
		walkSnapshot(wrap(e), richSnapshot())
		if trailing {
			e.buf = append(e.buf, 0)
		}
		return seal(e.buf)
	}
	plain := func(e *encoder) wire { return e }
	if !bytes.Equal(frame(plain, false), Encode(richSnapshot())) {
		t.Fatal("test framing differs from Encode")
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"non-canonical varint", frame(func(e *encoder) wire { return overlongCount{e} }, false),
			"non-canonical varint in learner"},
		{"count over cap", frame(func(e *encoder) wire { return overCapCount{e} }, false),
			"learner count 4097 exceeds limit 4096"},
		{"boolean byte", frame(func(e *encoder) wire { return badBoolean{e} }, false),
			"invalid boolean byte 0x2 in mix signature"},
		{"int outside int32", frame(func(e *encoder) wire { return wideInteger{e} }, false),
			"strategy 2147483648 outside"},
		{"coordinate outside int32", frame(func(e *encoder) wire { return wideCoord{e} }, false),
			"sweep coordinate 2147483648 out of range"},
		{"trailing data", frame(plain, true), "trailing data"},
	} {
		snap, err := Decode(tc.data)
		var fe *FormatError
		if !errors.As(err, &fe) || snap != nil {
			t.Errorf("%s: Decode = %v, %v; want a *FormatError", tc.name, snap, err)
			continue
		}
		if !strings.Contains(fe.Msg, tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, fe.Msg, tc.want)
		}
	}
}

package pltstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
	"fssim/internal/transfer"
)

// The snapshot wire format, version 2. Everything is little-endian.
//
//	magic     8 bytes  "FSSIMPLT"
//	version   u32
//	learnHash u64
//	replayHash u64
//	family    u64      (sweep-family address; v2)
//	transferHash u64   (provenance trailer, 0 = cold-learned; v2)
//	benchmark string   (uvarint length, then bytes; canonical varints only)
//	key       string
//	coords    12 uvarints (swept machine coordinates, transfer.Coords; v2)
//	stats     machine.Stats, field by field (u64s; Prediction and the three
//	          cache snapshots inline)
//	state     core.AccelState: Params field by field (i64 / f64-bits / bool),
//	          deferred flag, then each learner with uvarint-counted rings,
//	          outlier entries, and clusters (moments as i64 N + f64 Mean/M2)
//	checksum  u64 FNV-1a over every preceding byte
//
// Floats travel as raw IEEE-754 bit patterns, so any value — including the
// NaNs and infinities the validator later rejects — round-trips exactly;
// the codec's job is bytes, the validator's job is meaning. Every count is
// bounds-checked against both a hard cap and the bytes remaining, so a
// crafted length cannot drive a large allocation. Decode never panics: every
// malformed input yields a *FormatError.

// snapshotMagic identifies a snapshot file independent of its name.
var snapshotMagic = [8]byte{'F', 'S', 'S', 'I', 'M', 'P', 'L', 'T'}

// Decode-side caps, mirroring core's snapshot limits: counts beyond these
// are rejected before allocation. core.AccelState.Validate re-checks the
// decoded state semantically.
const (
	maxDecodeString   = 1 << 16
	maxDecodeLearners = 1 << 12
	maxDecodeClusters = 1 << 16
	maxDecodeOutliers = 1 << 16
	maxDecodeEPOs     = 1 << 20
	maxDecodeRing     = 1 << 20
)

// FormatError reports malformed snapshot bytes: bad magic, wrong version,
// truncation, checksum mismatch, or an out-of-bounds count. Off is the byte
// offset where decoding failed.
type FormatError struct {
	Off int
	Msg string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("pltstore: malformed snapshot at byte %d: %s", e.Off, e.Msg)
}

// Encode serializes the snapshot to the versioned binary format, including
// the trailing checksum. Encoding is deterministic: equal snapshots produce
// equal bytes.
func Encode(s *Snapshot) []byte {
	e := &encoder{}
	e.raw(snapshotMagic[:])
	e.u32(FormatVersion)
	e.u64(s.LearnHash)
	e.u64(s.ReplayHash)
	e.u64(s.Family)
	e.u64(s.TransferHash)
	e.str(s.Benchmark)
	e.str(s.Key)
	e.coords(&s.Coords)
	e.stats(&s.Stats)
	e.state(s.State)
	h := fnv.New64a()
	h.Write(e.buf)
	e.u64(h.Sum64())
	return e.buf
}

// Decode parses snapshot bytes, verifying the checksum before interpreting
// anything else. It returns a *FormatError for any malformed input and never
// panics; a nil error means the bytes are structurally valid (semantic
// validity is Snapshot.Validate's job).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+4+8 {
		return nil, &FormatError{Off: len(data), Msg: "truncated header"}
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, &FormatError{Off: len(body), Msg: "checksum mismatch"}
	}
	d := &decoder{data: body}
	for i, b := range d.take(len(snapshotMagic), "magic") {
		if d.err == nil && b != snapshotMagic[i] {
			d.fail(i, "bad magic")
		}
	}
	if v := d.u32("version"); d.err == nil && v != FormatVersion {
		d.fail(d.off-4, fmt.Sprintf("unsupported format version %d", v))
	}
	s := &Snapshot{}
	s.LearnHash = d.u64("learn hash")
	s.ReplayHash = d.u64("replay hash")
	s.Family = d.u64("family hash")
	s.TransferHash = d.u64("transfer hash")
	s.Benchmark = d.str("benchmark")
	s.Key = d.str("key")
	d.coords(&s.Coords)
	d.stats(&s.Stats)
	s.State = d.state()
	if d.err == nil && d.off != len(d.data) {
		d.fail(d.off, "trailing data")
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// ---------------------------------------------------------------- encoder

type encoder struct{ buf []byte }

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) boolean(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

// coordFields lists the swept machine coordinates in wire order.
func coordFields(c *transfer.Coords) [12]*int {
	return [12]*int{
		&c.L1ISize, &c.L1IAssoc, &c.L1DSize, &c.L1DAssoc,
		&c.L2Size, &c.L2Assoc,
		&c.FetchWidth, &c.IssueWidth, &c.RetireWidth, &c.ROBSize,
		&c.MemLatency, &c.BusOccupancy,
	}
}

func (e *encoder) coords(c *transfer.Coords) {
	for _, f := range coordFields(c) {
		e.uvarint(uint64(*f))
	}
}

func (e *encoder) cacheStats(c *cache.Stats) {
	e.u64(c.Accesses)
	e.u64(c.Misses)
	e.u64(c.OSAccesses)
	e.u64(c.OSMisses)
	e.u64(c.Writebacks)
	e.u64(c.Evictions)
	e.u64(c.PollutionEv)
}

func (e *encoder) stats(st *machine.Stats) {
	e.u64(st.Cycles)
	e.u64(st.Insts)
	e.u64(st.UserInsts)
	e.u64(st.OSInsts)
	e.u64(st.Intervals)
	e.u64(st.Emulated)
	e.u64(st.EmuInsts)
	e.u64(st.PredCycles)
	e.u64(st.Pred.Cycles)
	e.u64(st.Pred.L1IMisses)
	e.u64(st.Pred.L1DMisses)
	e.u64(st.Pred.L2Misses)
	e.u64(st.Pred.L1IAccesses)
	e.u64(st.Pred.L1DAccesses)
	e.u64(st.Pred.L2Accesses)
	e.u64(st.Pred.L2Writebacks)
	e.cacheStats(&st.Mem.L1I)
	e.cacheStats(&st.Mem.L1D)
	e.cacheStats(&st.Mem.L2)
	e.u64(st.DRAM)
	e.u64(st.BrLookups)
	e.u64(st.BrMispreds)
}

func (e *encoder) moments(m stats.Moments) {
	e.i64(m.N)
	e.f64(m.Mean)
	e.f64(m.M2)
}

func (e *encoder) state(st *core.AccelState) {
	p := st.Params
	e.i64(int64(p.Strategy))
	e.f64(p.PMin)
	e.f64(p.DoC)
	e.f64(p.RangeFrac)
	e.i64(int64(p.WarmupSkip))
	e.i64(int64(p.LearnWindow))
	e.i64(int64(p.DelayedThreshold))
	e.i64(int64(p.MinEPOs))
	e.i64(int64(p.MovingWindow))
	e.f64(p.FixedRange)
	e.boolean(p.MixSignature)
	e.f64(p.WatchdogThreshold)
	e.i64(int64(p.WatchdogWindow))
	e.boolean(st.Deferred)
	e.uvarint(uint64(len(st.Learners)))
	for i := range st.Learners {
		e.learner(&st.Learners[i])
	}
}

func (e *encoder) learner(l *core.LearnerState) {
	e.buf = append(e.buf, byte(l.Service.Kind))
	e.buf = binary.LittleEndian.AppendUint16(e.buf, l.Service.Num)
	e.i64(int64(l.Phase))
	e.i64(l.Seen)
	e.i64(int64(l.WarmLeft))
	e.i64(int64(l.LearnLeft))
	e.uvarint(uint64(len(l.Ring)))
	for _, id := range l.Ring {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(id))
	}
	e.i64(int64(l.RingPos))
	e.i64(int64(l.NextOutID))
	e.uvarint(uint64(len(l.Outliers)))
	for _, o := range l.Outliers {
		e.i64(int64(o.ID))
		e.f64(o.Centroid)
		e.i64(o.N)
		e.uvarint(uint64(len(o.EPOs)))
		for _, p := range o.EPOs {
			e.f64(p)
		}
	}
	e.uvarint(uint64(len(l.WDRing)))
	for _, v := range l.WDRing {
		e.boolean(v)
	}
	e.i64(int64(l.WDPos))
	e.i64(int64(l.WDLen))
	e.i64(int64(l.WDOut))
	e.i64(int64(l.HoldLeft))
	e.i64(int64(l.RearmSeen))
	e.i64(int64(l.RearmMatched))
	e.i64(l.Learned)
	e.i64(l.Predicted)
	e.i64(l.OutlierN)
	e.i64(l.Relearns)
	e.i64(l.Degrades)
	e.f64(l.ObsCycles)
	e.f64(l.ObsInsts)
	e.uvarint(uint64(len(l.Table.Clusters)))
	for _, c := range l.Table.Clusters {
		e.f64(c.Centroid)
		e.f64(c.MixCentroid[0])
		e.f64(c.MixCentroid[1])
		e.f64(c.MixCentroid[2])
		e.i64(c.N)
		e.moments(c.Perf.Cycles)
		e.moments(c.Perf.L1IM)
		e.moments(c.Perf.L1DM)
		e.moments(c.Perf.L2M)
		e.moments(c.Perf.L1IA)
		e.moments(c.Perf.L1DA)
		e.moments(c.Perf.L2A)
		e.moments(c.Perf.L2WB)
		e.moments(c.Perf.IPC)
	}
}

// ---------------------------------------------------------------- decoder

// decoder walks the checksum-verified body with a sticky error: after the
// first failure every read returns zero values, so callers can decode a
// whole structure and check err once.
type decoder struct {
	data []byte
	off  int
	err  *FormatError
}

func (d *decoder) fail(off int, msg string) {
	if d.err == nil {
		d.err = &FormatError{Off: off, Msg: msg}
	}
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.data)-d.off < n {
		d.fail(d.off, "truncated "+what)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64(what string) int64   { return int64(d.u64(what)) }
func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }
func (d *decoder) u16(what string) uint16 {
	b := d.take(2, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) boolean(what string) bool {
	b := d.take(1, what)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(d.off-1, fmt.Sprintf("invalid boolean byte %#x in %s", b[0], what))
		return false
	}
}

// uvarint reads a canonically encoded varint. Non-minimal encodings are
// rejected so that every successfully decoded snapshot re-encodes to the
// exact bytes it was read from.
func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(d.off, "truncated or overlong varint in "+what)
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutUvarint(tmp[:], v) != n {
		d.fail(d.off, "non-canonical varint in "+what)
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint bounded both by a hard cap and by the bytes that
// remain (each element needs at least elemSize bytes), so a crafted count
// cannot force a large allocation.
func (d *decoder) count(what string, cap uint64, elemSize int) int {
	off := d.off
	v := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if v > cap {
		d.fail(off, fmt.Sprintf("%s count %d exceeds limit %d", what, v, cap))
		return 0
	}
	if remaining := uint64(len(d.data) - d.off); elemSize > 0 && v > remaining/uint64(elemSize) {
		d.fail(off, fmt.Sprintf("%s count %d exceeds remaining data", what, v))
		return 0
	}
	return int(v)
}

func (d *decoder) str(what string) string {
	n := d.count(what, maxDecodeString, 1)
	b := d.take(n, what)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) coords(c *transfer.Coords) {
	for _, f := range coordFields(c) {
		off := d.off
		v := d.uvarint("coords")
		if d.err != nil {
			return
		}
		if v > math.MaxInt32 {
			d.fail(off, fmt.Sprintf("sweep coordinate %d out of range", v))
			return
		}
		*f = int(v)
	}
}

func (d *decoder) cacheStats(c *cache.Stats, what string) {
	c.Accesses = d.u64(what)
	c.Misses = d.u64(what)
	c.OSAccesses = d.u64(what)
	c.OSMisses = d.u64(what)
	c.Writebacks = d.u64(what)
	c.Evictions = d.u64(what)
	c.PollutionEv = d.u64(what)
}

func (d *decoder) stats(st *machine.Stats) {
	st.Cycles = d.u64("stats")
	st.Insts = d.u64("stats")
	st.UserInsts = d.u64("stats")
	st.OSInsts = d.u64("stats")
	st.Intervals = d.u64("stats")
	st.Emulated = d.u64("stats")
	st.EmuInsts = d.u64("stats")
	st.PredCycles = d.u64("stats")
	st.Pred.Cycles = d.u64("stats")
	st.Pred.L1IMisses = d.u64("stats")
	st.Pred.L1DMisses = d.u64("stats")
	st.Pred.L2Misses = d.u64("stats")
	st.Pred.L1IAccesses = d.u64("stats")
	st.Pred.L1DAccesses = d.u64("stats")
	st.Pred.L2Accesses = d.u64("stats")
	st.Pred.L2Writebacks = d.u64("stats")
	d.cacheStats(&st.Mem.L1I, "stats")
	d.cacheStats(&st.Mem.L1D, "stats")
	d.cacheStats(&st.Mem.L2, "stats")
	st.DRAM = d.u64("stats")
	st.BrLookups = d.u64("stats")
	st.BrMispreds = d.u64("stats")
}

func (d *decoder) moments(what string) stats.Moments {
	return stats.Moments{
		N:    d.i64(what),
		Mean: d.f64(what),
		M2:   d.f64(what),
	}
}

// intRange reads an i64 that must fit the given inclusive range, converting
// to int. The codec only enforces what it needs for safe construction;
// semantic ranges are re-checked by core's validator.
func (d *decoder) intRange(what string, lo, hi int64) int {
	off := d.off
	v := d.i64(what)
	if d.err != nil {
		return 0
	}
	if v < lo || v > hi {
		d.fail(off, fmt.Sprintf("%s %d outside [%d, %d]", what, v, lo, hi))
		return 0
	}
	return int(v)
}

func (d *decoder) state() *core.AccelState {
	st := &core.AccelState{}
	st.Params.Strategy = core.Strategy(d.intRange("strategy", math.MinInt32, math.MaxInt32))
	st.Params.PMin = d.f64("params")
	st.Params.DoC = d.f64("params")
	st.Params.RangeFrac = d.f64("params")
	st.Params.WarmupSkip = d.intRange("warmup skip", math.MinInt32, math.MaxInt32)
	st.Params.LearnWindow = d.intRange("learn window", math.MinInt32, math.MaxInt32)
	st.Params.DelayedThreshold = d.intRange("delayed threshold", math.MinInt32, math.MaxInt32)
	st.Params.MinEPOs = d.intRange("min EPOs", math.MinInt32, math.MaxInt32)
	st.Params.MovingWindow = d.intRange("moving window", math.MinInt32, math.MaxInt32)
	st.Params.FixedRange = d.f64("params")
	st.Params.MixSignature = d.boolean("mix signature")
	st.Params.WatchdogThreshold = d.f64("params")
	st.Params.WatchdogWindow = d.intRange("watchdog window", math.MinInt32, math.MaxInt32)
	st.Deferred = d.boolean("deferred")
	n := d.count("learner", maxDecodeLearners, 8)
	if n > 0 {
		st.Learners = make([]core.LearnerState, n)
		for i := range st.Learners {
			d.learner(&st.Learners[i])
		}
	}
	return st
}

func (d *decoder) learner(l *core.LearnerState) {
	if b := d.take(1, "service kind"); b != nil {
		l.Service.Kind = isa.ServiceKind(b[0])
	}
	l.Service.Num = d.u16("service number")
	l.Phase = d.intRange("phase", math.MinInt32, math.MaxInt32)
	l.Seen = d.i64("seen")
	l.WarmLeft = d.intRange("warmup remaining", math.MinInt32, math.MaxInt32)
	l.LearnLeft = d.intRange("learning remaining", math.MinInt32, math.MaxInt32)
	if n := d.count("ring", maxDecodeRing, 2); n > 0 {
		l.Ring = make([]int16, n)
		for i := range l.Ring {
			l.Ring[i] = int16(d.u16("ring entry"))
		}
	}
	l.RingPos = d.intRange("ring position", math.MinInt32, math.MaxInt32)
	l.NextOutID = d.intRange("next outlier id", math.MinInt32, math.MaxInt32)
	if n := d.count("outlier", maxDecodeOutliers, 8); n > 0 {
		l.Outliers = make([]core.OutlierState, n)
		for i := range l.Outliers {
			o := &l.Outliers[i]
			o.ID = d.intRange("outlier id", math.MinInt32, math.MaxInt32)
			o.Centroid = d.f64("outlier centroid")
			o.N = d.i64("outlier count")
			if m := d.count("EPO", maxDecodeEPOs, 8); m > 0 {
				o.EPOs = make([]float64, m)
				for j := range o.EPOs {
					o.EPOs[j] = d.f64("EPO")
				}
			}
		}
	}
	if n := d.count("watchdog ring", maxDecodeRing, 1); n > 0 {
		l.WDRing = make([]bool, n)
		for i := range l.WDRing {
			l.WDRing[i] = d.boolean("watchdog ring entry")
		}
	}
	l.WDPos = d.intRange("watchdog position", math.MinInt32, math.MaxInt32)
	l.WDLen = d.intRange("watchdog fill", math.MinInt32, math.MaxInt32)
	l.WDOut = d.intRange("watchdog outliers", math.MinInt32, math.MaxInt32)
	l.HoldLeft = d.intRange("hold remaining", math.MinInt32, math.MaxInt32)
	l.RearmSeen = d.intRange("re-arm seen", math.MinInt32, math.MaxInt32)
	l.RearmMatched = d.intRange("re-arm matched", math.MinInt32, math.MaxInt32)
	l.Learned = d.i64("learned counter")
	l.Predicted = d.i64("predicted counter")
	l.OutlierN = d.i64("outlier counter")
	l.Relearns = d.i64("relearn counter")
	l.Degrades = d.i64("degrade counter")
	l.ObsCycles = d.f64("observed cycles")
	l.ObsInsts = d.f64("observed instructions")
	if n := d.count("cluster", maxDecodeClusters, 8); n > 0 {
		cs := make([]core.Cluster, n)
		l.Table.Clusters = make([]*core.Cluster, n)
		for i := range cs {
			c := &cs[i]
			l.Table.Clusters[i] = c
			c.Centroid = d.f64("cluster centroid")
			c.MixCentroid[0] = d.f64("mix centroid")
			c.MixCentroid[1] = d.f64("mix centroid")
			c.MixCentroid[2] = d.f64("mix centroid")
			c.N = d.i64("cluster count")
			c.Perf.Cycles = d.moments("cluster moments")
			c.Perf.L1IM = d.moments("cluster moments")
			c.Perf.L1DM = d.moments("cluster moments")
			c.Perf.L2M = d.moments("cluster moments")
			c.Perf.L1IA = d.moments("cluster moments")
			c.Perf.L1DA = d.moments("cluster moments")
			c.Perf.L2A = d.moments("cluster moments")
			c.Perf.L2WB = d.moments("cluster moments")
			c.Perf.IPC = d.moments("cluster moments")
		}
	}
}

package pltstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"fssim/internal/cache"
	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/transfer"
)

// The snapshot wire format, version 2. Everything is little-endian.
//
//	magic     8 bytes  "FSSIMPLT"
//	version   u32
//	snapshot  walkSnapshot: learnHash, replayHash, family (sweep-family
//	          address) and transferHash (provenance, 0 = cold-learned) as
//	          u64s; benchmark and key strings (uvarint length, then bytes);
//	          the 12 swept coordinates as uvarints; machine.Stats as u64s
//	          (walkStats); core.AccelState (walkState: Params, deferred flag,
//	          then each learner with uvarint-counted rings, outlier entries,
//	          and clusters with their nine moments as i64 N + f64 Mean/M2)
//	checksum  u64 FNV-1a over every preceding byte
//
// One walk per record names each field once, in wire order, over the wire
// interface; the encoder and the decoder are its two implementations, so the
// two directions cannot drift apart. Ints travel as i64s, floats as raw
// IEEE-754 bit patterns, so any value — including the NaNs and infinities
// the validator later rejects — round-trips exactly; the codec's job is
// bytes, the validator's job is meaning. Every count is bounds-checked
// against both core's snapshot limit and the bytes remaining, so a crafted
// length cannot drive a large allocation. Decode never panics: every
// malformed input yields a *FormatError.

// snapshotMagic identifies a snapshot file independent of its name.
var snapshotMagic = [8]byte{'F', 'S', 'S', 'I', 'M', 'P', 'L', 'T'}

// maxDecodeString caps the benchmark and key strings.
const maxDecodeString = 1 << 16

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
// equal bytes. It does not modify s.
func Encode(s *Snapshot) []byte {
	// Snapshots of real runs are tens of KB: starting at 16 KiB skips the
	// small growth steps of the buffer.
	e := &encoder{buf: append(make([]byte, 0, 16<<10), snapshotMagic[:]...)}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, FormatVersion)
	walkSnapshot(e, s)
	h := fnv.New64a()
	h.Write(e.buf)
	return binary.LittleEndian.AppendUint64(e.buf, h.Sum64())
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
		if b != snapshotMagic[i] {
			d.fail(i, "bad magic")
		}
	}
	if b := d.take(4, "version"); b != nil {
		if v := binary.LittleEndian.Uint32(b); v != FormatVersion {
			d.fail(d.off-4, fmt.Sprintf("unsupported format version %d", v))
		}
	}
	// The snapshot and its learner state share one allocation, which pays
	// for the decoder's own: it escapes through the wire interface.
	both := &struct {
		s  Snapshot
		st core.AccelState
	}{}
	s := &both.s
	s.State = &both.st
	walkSnapshot(d, s)
	if d.err == nil && d.off != len(d.data) {
		d.fail(d.off, "trailing data")
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// wire is one direction of the codec. The encoder appends each value's
// bytes; the decoder reads each value from its input and stores it. what
// names the value in decode errors.
type wire interface {
	u8(v *uint8, what string)
	u16(v *uint16, what string)
	i16(v *int16, what string)
	u64(v *uint64, what string)
	i64(v *int64, what string)
	f64(v *float64, what string)
	boolean(v *bool, what string) // one byte, 0 or 1
	integer(v *int, what string)  // an i64 that must fit int32
	coord(v *int)                 // a uvarint up to MaxInt32
	str(v *string, what string)   // uvarint length, then the bytes
	// count carries a list length: the encoder writes n and returns it; the
	// decoder returns the length it reads, at most limit and at most the
	// bytes left divided by minSize, the least bytes one element takes.
	count(n int, what string, limit uint64, minSize int) int
}

// list walks a counted list with elem. The decoder allocates the list; an
// empty list stays nil. The encoder's list already has its length.
func list[T any](w wire, s *[]T, what string, limit uint64, minSize int, elem func(wire, *T)) {
	if n := w.count(len(*s), what, limit, minSize); n != len(*s) {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(w, &(*s)[i])
	}
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

// ---------------------------------------------------------------- walks

func walkSnapshot(w wire, s *Snapshot) {
	w.u64(&s.LearnHash, "learn hash")
	w.u64(&s.ReplayHash, "replay hash")
	w.u64(&s.Family, "family hash")
	w.u64(&s.TransferHash, "transfer hash")
	w.str(&s.Benchmark, "benchmark")
	w.str(&s.Key, "key")
	for _, c := range coordFields(&s.Coords) {
		w.coord(c)
	}
	walkStats(w, &s.Stats)
	walkState(w, s.State)
}

func walkStats(w wire, st *machine.Stats) {
	p := &st.Pred
	for _, v := range [...]*uint64{
		&st.Cycles, &st.Insts, &st.UserInsts, &st.OSInsts,
		&st.Intervals, &st.Emulated, &st.EmuInsts, &st.PredCycles,
		&p.Cycles, &p.L1IMisses, &p.L1DMisses, &p.L2Misses,
		&p.L1IAccesses, &p.L1DAccesses, &p.L2Accesses, &p.L2Writebacks,
	} {
		w.u64(v, "stats")
	}
	for _, c := range [...]*cache.Stats{&st.Mem.L1I, &st.Mem.L1D, &st.Mem.L2} {
		for _, v := range [...]*uint64{&c.Accesses, &c.Misses, &c.OSAccesses,
			&c.OSMisses, &c.Writebacks, &c.Evictions, &c.PollutionEv} {
			w.u64(v, "stats")
		}
	}
	for _, v := range [...]*uint64{&st.DRAM, &st.BrLookups, &st.BrMispreds} {
		w.u64(v, "stats")
	}
}

func walkState(w wire, st *core.AccelState) {
	p := &st.Params
	w.integer((*int)(&p.Strategy), "strategy")
	w.f64(&p.PMin, "params")
	w.f64(&p.DoC, "params")
	w.f64(&p.RangeFrac, "params")
	w.integer(&p.WarmupSkip, "warmup skip")
	w.integer(&p.LearnWindow, "learn window")
	w.integer(&p.DelayedThreshold, "delayed threshold")
	w.integer(&p.MinEPOs, "min EPOs")
	w.integer(&p.MovingWindow, "moving window")
	w.f64(&p.FixedRange, "params")
	w.boolean(&p.MixSignature, "mix signature")
	w.f64(&p.WatchdogThreshold, "params")
	w.integer(&p.WatchdogWindow, "watchdog window")
	w.boolean(&st.Deferred, "deferred")
	list(w, &st.Learners, "learner", core.MaxSnapshotLearners, 8, walkLearner)
}

func walkLearner(w wire, l *core.LearnerState) {
	w.u8((*uint8)(&l.Service.Kind), "service kind")
	w.u16(&l.Service.Num, "service number")
	w.integer(&l.Phase, "phase")
	w.i64(&l.Seen, "seen")
	w.integer(&l.WarmLeft, "warmup remaining")
	w.integer(&l.LearnLeft, "learning remaining")
	list(w, &l.Ring, "ring", core.MaxSnapshotRing, 2,
		func(w wire, id *int16) { w.i16(id, "ring entry") })
	w.integer(&l.RingPos, "ring position")
	w.integer(&l.NextOutID, "next outlier id")
	list(w, &l.Outliers, "outlier", core.MaxSnapshotOutliers, 8, walkOutlier)
	list(w, &l.WDRing, "watchdog ring", core.MaxSnapshotRing, 1,
		func(w wire, v *bool) { w.boolean(v, "watchdog ring entry") })
	w.integer(&l.WDPos, "watchdog position")
	w.integer(&l.WDLen, "watchdog fill")
	w.integer(&l.WDOut, "watchdog outliers")
	w.integer(&l.HoldLeft, "hold remaining")
	w.integer(&l.RearmSeen, "re-arm seen")
	w.integer(&l.RearmMatched, "re-arm matched")
	w.i64(&l.Learned, "learned counter")
	w.i64(&l.Predicted, "predicted counter")
	w.i64(&l.OutlierN, "outlier counter")
	w.i64(&l.Relearns, "relearn counter")
	w.i64(&l.Degrades, "degrade counter")
	w.f64(&l.ObsCycles, "observed cycles")
	w.f64(&l.ObsInsts, "observed instructions")
	// Clusters are a list of pointers; the decoder points them into one
	// backing array rather than allocating each cluster on its own.
	cs := &l.Table.Clusters
	if n := w.count(len(*cs), "cluster", core.MaxSnapshotClusters, 8); n != len(*cs) {
		backing := make([]core.Cluster, n)
		*cs = make([]*core.Cluster, n)
		for i := range backing {
			(*cs)[i] = &backing[i]
		}
	}
	for _, c := range *cs {
		walkCluster(w, c)
	}
}

func walkOutlier(w wire, o *core.OutlierState) {
	w.integer(&o.ID, "outlier id")
	w.f64(&o.Centroid, "outlier centroid")
	w.i64(&o.N, "outlier count")
	list(w, &o.EPOs, "EPO", core.MaxSnapshotEPOs, 8,
		func(w wire, p *float64) { w.f64(p, "EPO") })
}

func walkCluster(w wire, c *core.Cluster) {
	w.f64(&c.Centroid, "cluster centroid")
	for i := range c.MixCentroid {
		w.f64(&c.MixCentroid[i], "mix centroid")
	}
	w.i64(&c.N, "cluster count")
	for _, m := range c.Perf.Moments() {
		w.i64(&m.N, "cluster moments")
		w.f64(&m.Mean, "cluster moments")
		w.f64(&m.M2, "cluster moments")
	}
}

// ---------------------------------------------------------------- encoder

type encoder struct{ buf []byte }

func (e *encoder) u8(v *uint8, _ string) { e.buf = append(e.buf, *v) }
func (e *encoder) u16(v *uint16, _ string) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, *v)
}
func (e *encoder) i16(v *int16, _ string) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(*v))
}
func (e *encoder) u64(v *uint64, _ string) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, *v)
}
func (e *encoder) i64(v *int64, _ string) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(*v))
}
func (e *encoder) f64(v *float64, _ string) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(*v))
}
func (e *encoder) boolean(v *bool, _ string) {
	var b byte
	if *v {
		b = 1
	}
	e.buf = append(e.buf, b)
}
func (e *encoder) integer(v *int, _ string) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(*v))
}
func (e *encoder) coord(v *int) { e.buf = binary.AppendUvarint(e.buf, uint64(*v)) }
func (e *encoder) str(v *string, _ string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(*v)))
	e.buf = append(e.buf, *v...)
}
func (e *encoder) count(n int, _ string, _ uint64, _ int) int {
	e.buf = binary.AppendUvarint(e.buf, uint64(n))
	return n
}

// ---------------------------------------------------------------- decoder

// decoder walks the checksum-verified body with a sticky error: after the
// first failure every read stores zero values, so a walk can decode a whole
// structure and check err once.
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

// word reads one u64 (0 after a failure).
func (d *decoder) word(what string) uint64 {
	if b := d.take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) u8(v *uint8, what string) {
	if b := d.take(1, what); b != nil {
		*v = b[0]
	}
}
func (d *decoder) u16(v *uint16, what string) {
	if b := d.take(2, what); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}
func (d *decoder) i16(v *int16, what string) {
	if b := d.take(2, what); b != nil {
		*v = int16(binary.LittleEndian.Uint16(b))
	}
}
func (d *decoder) u64(v *uint64, what string)  { *v = d.word(what) }
func (d *decoder) i64(v *int64, what string)   { *v = int64(d.word(what)) }
func (d *decoder) f64(v *float64, what string) { *v = math.Float64frombits(d.word(what)) }

func (d *decoder) boolean(v *bool, what string) {
	b := d.take(1, what)
	switch {
	case b == nil:
	case b[0] <= 1:
		*v = b[0] == 1
	default:
		d.fail(d.off-1, fmt.Sprintf("invalid boolean byte %#x in %s", b[0], what))
	}
}

// integer reads an i64 that must fit int32. The codec only enforces what it
// needs for safe construction; semantic ranges are core's validator's job.
func (d *decoder) integer(v *int, what string) {
	off := d.off
	x := int64(d.word(what))
	if x < math.MinInt32 || x > math.MaxInt32 {
		d.fail(off, fmt.Sprintf("%s %d outside [%d, %d]", what, x, math.MinInt32, math.MaxInt32))
		return
	}
	*v = int(x)
}

func (d *decoder) coord(v *int) {
	off := d.off
	x := d.uvarint("coords")
	if x > math.MaxInt32 {
		d.fail(off, fmt.Sprintf("sweep coordinate %d out of range", x))
		return
	}
	*v = int(x)
}

func (d *decoder) str(v *string, what string) {
	if b := d.take(d.count(0, what, maxDecodeString, 1), what); b != nil {
		*v = string(b)
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

func (d *decoder) count(_ int, what string, limit uint64, minSize int) int {
	off := d.off
	v := d.uvarint(what)
	switch {
	case v > limit:
		d.fail(off, fmt.Sprintf("%s count %d exceeds limit %d", what, v, limit))
	case v > uint64(len(d.data)-d.off)/uint64(minSize):
		d.fail(off, fmt.Sprintf("%s count %d exceeds remaining data", what, v))
	default:
		return int(v)
	}
	return 0
}

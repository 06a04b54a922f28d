package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Hist2D is a sparse two-dimensional histogram over fixed-size bins. The
// characterization study uses it to build the paper's Fig 5 bubble plots
// (instruction-count bins x cycle bins, bubble area = occurrences).
type Hist2D struct {
	XBin, YBin float64 // bin widths; must be > 0
	cells      map[[2]int64]int64
}

// NewHist2D returns a histogram with the given bin widths.
func NewHist2D(xbin, ybin float64) *Hist2D {
	return &Hist2D{XBin: xbin, YBin: ybin, cells: make(map[[2]int64]int64)}
}

// Add records one (x, y) observation.
func (h *Hist2D) Add(x, y float64) {
	key := [2]int64{int64(x / h.XBin), int64(y / h.YBin)}
	h.cells[key]++
}

// Cell is one non-empty histogram bin: the bin's center coordinates and the
// number of observations that fell into it.
type Cell struct {
	X, Y  float64
	Count int64
}

// Cells returns all non-empty bins ordered by (X, Y).
func (h *Hist2D) Cells() []Cell {
	out := make([]Cell, 0, len(h.cells))
	for k, c := range h.cells {
		out = append(out, Cell{
			X:     (float64(k[0]) + 0.5) * h.XBin,
			Y:     (float64(k[1]) + 0.5) * h.YBin,
			Count: c,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// Total returns the number of observations recorded.
func (h *Hist2D) Total() int64 {
	var t int64
	for _, c := range h.cells {
		t += c
	}
	return t
}

// NonEmpty returns the number of occupied bins — a proxy for the number of
// distinct behavior points (the paper's Fig 5 observation is that this stays
// small even for thousands of invocations).
func (h *Hist2D) NonEmpty() int { return len(h.cells) }

// logHistBuckets is the number of power-of-two buckets a LogHist keeps:
// bucket 0 covers [0, 1), bucket i covers [2^(i-1), 2^i), so the top regular
// bucket ends at 2^63. Anything at or beyond that lands in the overflow
// bucket; negative (or NaN) observations land in the out-of-range bucket.
const logHistBuckets = 64

// LogHist is a fixed-size power-of-two-bucketed histogram over non-negative
// values, with running mean/variance (Moments) and explicit out-of-range
// and overflow buckets. The observability layer uses it for metrics whose
// values span orders of magnitude (interval cycle counts, queue depths)
// where uniform bins would be useless. The zero value is ready to use.
type LogHist struct {
	w        Moments
	buckets  [logHistBuckets]int64
	oob      int64 // negative or NaN observations
	overflow int64 // observations >= 2^63
	min, max float64
}

// Add records one observation. Negative and NaN values are counted in the
// out-of-range bucket and excluded from the moments; values >= 2^63 are
// counted in the overflow bucket but still contribute to the moments.
func (h *LogHist) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		h.oob++
		return
	}
	if h.w.N == 0 || v < h.min {
		h.min = v
	}
	if h.w.N == 0 || v > h.max {
		h.max = v
	}
	h.w.Add(v)
	if v >= float64(uint64(1)<<63) {
		h.overflow++
		return
	}
	h.buckets[bits.Len64(uint64(v))]++
}

// N returns the number of in-range observations (overflow included,
// out-of-range excluded).
func (h *LogHist) N() int64 { return h.w.N }

// Mean returns the mean of in-range observations.
func (h *LogHist) Mean() float64 { return h.w.Mean }

// Std returns the sample standard deviation of in-range observations.
func (h *LogHist) Std() float64 { return h.w.Std() }

// Min returns the smallest in-range observation (0 if empty).
func (h *LogHist) Min() float64 { return h.min }

// Max returns the largest in-range observation (0 if empty).
func (h *LogHist) Max() float64 { return h.max }

// OutOfRange returns the count of negative/NaN observations.
func (h *LogHist) OutOfRange() int64 { return h.oob }

// Overflow returns the count of observations >= 2^63.
func (h *LogHist) Overflow() int64 { return h.overflow }

// LogBucket is one non-empty LogHist bucket: [Lo, Hi) and its count.
type LogBucket struct {
	Lo, Hi float64
	N      int64
}

// Buckets returns the non-empty regular buckets in ascending order.
func (h *LogHist) Buckets() []LogBucket {
	var out []LogBucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(uint64(1) << (i - 1))
		}
		out = append(out, LogBucket{Lo: lo, Hi: float64(uint64(1) << i), N: n})
	}
	return out
}

package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"fssim/internal/stats"
)

// Registry is a typed metrics registry: named counters, gauges, and
// histograms. Lookup is get-or-create, and the registry and every instrument
// in it are safe for concurrent use: counters and gauges are atomic, and a
// histogram takes its own lock. Every method is a no-op on a nil receiver,
// and the nil instruments it then returns are no-ops too, so
// `reg.Counter("x").Inc()` is safe — and nearly free — with tracing off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters[name]
	if c == nil {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.gauges[name]
	if v == nil {
		v = &Gauge{}
		g.gauges[name] = v
	}
	return v
}

// Histogram returns the named histogram, creating it on first use.
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hists[name]
	if h == nil {
		h = &Histogram{}
		g.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a log2-bucketed distribution (stats.LogHist) behind the
// registry's nil-safe surface, guarded by its own lock.
type Histogram struct {
	mu sync.Mutex
	h  stats.LogHist
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Hist returns a copy of the underlying stats.LogHist (a zero-value
// histogram for a nil receiver).
func (h *Histogram) Hist() stats.LogHist {
	if h == nil {
		return stats.LogHist{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// MetricKind tags a snapshot point.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// MetricPoint is one metric's snapshot. Counters and gauges carry Value;
// histograms carry Count/Mean/Min/Max plus the out-of-range and overflow
// bucket counts.
type MetricPoint struct {
	Name  string
	Kind  MetricKind
	Value int64

	Count      int64
	Mean       float64
	Min, Max   float64
	OutOfRange int64
	Overflow   int64
}

// Snapshot is an immutable, name-sorted view of a registry, attachable to a
// run result after the simulation completes.
type Snapshot []MetricPoint

// Snapshot captures every instrument, sorted by (name, kind) so the result —
// and everything rendered from it — is deterministic.
func (g *Registry) Snapshot() Snapshot {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(Snapshot, 0, len(g.counters)+len(g.gauges)+len(g.hists))
	for name, c := range g.counters {
		out = append(out, MetricPoint{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, v := range g.gauges {
		out = append(out, MetricPoint{Name: name, Kind: KindGauge, Value: v.Value()})
	}
	for name, h := range g.hists {
		lh := h.Hist()
		out = append(out, MetricPoint{
			Name: name, Kind: KindHistogram,
			Count: lh.N(), Mean: lh.Mean(), Min: lh.Min(), Max: lh.Max(),
			OutOfRange: lh.OutOfRange(), Overflow: lh.Overflow(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteText renders the snapshot in a /metrics-style plaintext format: one
// `name value` line per counter/gauge, and `name_count`, `name_mean`,
// `name_min`, `name_max` (plus `name_oob`/`name_overflow` when non-zero)
// lines per histogram.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, p := range s {
		var err error
		switch p.Kind {
		case KindHistogram:
			_, err = fmt.Fprintf(w, "%s_count %d\n%s_mean %s\n%s_min %s\n%s_max %s\n",
				p.Name, p.Count,
				p.Name, ftoa(p.Mean), p.Name, ftoa(p.Min), p.Name, ftoa(p.Max))
			if err == nil && p.OutOfRange > 0 {
				_, err = fmt.Fprintf(w, "%s_oob %d\n", p.Name, p.OutOfRange)
			}
			if err == nil && p.Overflow > 0 {
				_, err = fmt.Fprintf(w, "%s_overflow %d\n", p.Name, p.Overflow)
			}
		default:
			_, err = fmt.Fprintf(w, "%s %d\n", p.Name, p.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteText snapshots the registry and renders it (see Snapshot.WriteText).
func (g *Registry) WriteText(w io.Writer) error { return g.Snapshot().WriteText(w) }

// ftoa formats a float compactly and deterministically.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

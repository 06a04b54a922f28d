package core

import (
	"sort"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/stats"
)

// Profiler performs the paper's §3 characterization: it records every OS
// service interval of a full-system run and derives per-service statistics
// (Fig 3), per-invocation series (Fig 4), signature-vs-cycles histograms
// (Fig 5), and clustered-vs-unclustered coefficient of variation (Fig 6).
type Profiler struct {
	RangeFrac float64 // scaled-cluster range for the offline clustering
	services  map[isa.ServiceID]*ServiceProfile
	order     []isa.ServiceID
}

// ServiceProfile accumulates one service's characterization.
type ServiceProfile struct {
	Service isa.ServiceID
	N       int64
	Cycles  stats.Moments
	Insts   stats.Moments
	IPC     stats.Moments
	Table   PLT // offline scaled clustering over (signature -> perf)

	// Series holds per-invocation (insts, cycles) pairs for Figs 4 and 5.
	Series []InstanceSample
}

// InstanceSample is one invocation's signature and outcome.
type InstanceSample struct {
	Insts  uint64
	Cycles uint64
}

// NewProfiler returns a profiler using the paper's ±5% scaled clusters.
func NewProfiler() *Profiler {
	return &Profiler{RangeFrac: 0.05, services: make(map[isa.ServiceID]*ServiceProfile)}
}

// Observer returns the machine.IntervalRecord hook to attach via
// Machine.SetObserver.
func (p *Profiler) Observer() func(machine.IntervalRecord) {
	return func(rec machine.IntervalRecord) {
		if rec.Meas == nil {
			return // fast-forwarded intervals carry no measured truth
		}
		sp := p.services[rec.Service]
		if sp == nil {
			sp = &ServiceProfile{Service: rec.Service}
			p.services[rec.Service] = sp
			p.order = append(p.order, rec.Service)
		}
		sp.N++
		sp.Cycles.Add(float64(rec.Cycles))
		sp.Insts.Add(float64(rec.Insts))
		sp.IPC.Add(rec.Meas.IPC())
		sp.Table.Learn(rec.Sig, rec.Meas, p.RangeFrac, 0, false)
		sp.Series = append(sp.Series, InstanceSample{Insts: rec.Insts, Cycles: rec.Cycles})
	}
}

// Service returns the profile for svc (nil if never seen).
func (p *Profiler) Service(svc isa.ServiceID) *ServiceProfile { return p.services[svc] }

// Services returns profiles sorted by service name (the paper's Fig 3 lists
// services alphabetically by syscall name with interrupts last).
func (p *Profiler) Services() []*ServiceProfile {
	out := make([]*ServiceProfile, 0, len(p.services))
	for _, svc := range p.order {
		out = append(out, p.services[svc])
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Service, out[j].Service
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.String() < b.String()
	})
	return out
}

// CVSummary is the Fig 6 comparison for one benchmark run: the average
// coefficient of variation of execution time and IPC across services, with
// all instances of a service treated as one cluster (NonClustered) versus
// grouped into scaled clusters (Clustered). Cluster CVs are weighted by
// cluster population, and services with a single invocation are skipped, as
// in the paper ("services that are invoked more than once").
type CVSummary struct {
	NonClusteredTime float64
	ClusteredTime    float64
	NonClusteredIPC  float64
	ClusteredIPC     float64
	Services         int
}

// CVs computes the Fig 6 summary over all profiled services.
func (p *Profiler) CVs() CVSummary {
	var sum CVSummary
	for _, sp := range p.services {
		if sp.N < 2 {
			continue
		}
		sum.Services++
		sum.NonClusteredTime += sp.Cycles.CV()
		sum.NonClusteredIPC += sp.IPC.CV()
		var ct, ci, weight float64
		for _, c := range sp.Table.Clusters {
			w := float64(c.N)
			ct += w * c.Perf.Cycles.CV()
			ci += w * c.Perf.IPC.CV()
			weight += w
		}
		if weight > 0 {
			sum.ClusteredTime += ct / weight
			sum.ClusteredIPC += ci / weight
		}
	}
	if sum.Services > 0 {
		n := float64(sum.Services)
		sum.NonClusteredTime /= n
		sum.ClusteredTime /= n
		sum.NonClusteredIPC /= n
		sum.ClusteredIPC /= n
	}
	return sum
}

// Hist2D builds the Fig 5 bubble histogram for one service: instruction bins
// of instBin and cycle bins of cycleBin (paper: 1000 instructions x 4000
// cycles).
func (sp *ServiceProfile) Hist2D(instBin, cycleBin float64) *stats.Hist2D {
	h := stats.NewHist2D(instBin, cycleBin)
	for _, s := range sp.Series {
		h.Add(float64(s.Insts), float64(s.Cycles))
	}
	return h
}

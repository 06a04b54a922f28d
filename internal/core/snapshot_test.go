package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fssim/internal/isa"
	"fssim/internal/machine"
)

// buildRichAccelerator drives an accelerator through a deterministic mixed
// workload so its exported state exercises every snapshot field: multiple
// services, warm-up/learning/predicting phases, outlier entries with
// probability estimates, a populated watchdog ring, and non-trivial
// counters.
func buildRichAccelerator() *Accelerator {
	p := DefaultParams()
	p.LearnWindow = 15
	p.WarmupSkip = 2
	p.WatchdogThreshold = 0.6
	p.WatchdogWindow = 8
	a := NewAccelerator(p)
	svcs := []isa.ServiceID{isa.Sys(isa.SysRead), isa.Sys(isa.SysWrite), isa.Sys(isa.SysOpen)}
	bases := []uint64{1000, 4000, 250}
	for step := 0; step < 600; step++ {
		i := step % len(svcs)
		insts := bases[i] + uint64(step%7) // small jitter inside cluster range
		if step%23 == 0 {
			insts = bases[i]*3 + uint64(step) // occasional outliers
		}
		feed(a, svcs[i], insts)
	}
	return a
}

// feed pushes one service instance through the accelerator's sink interface,
// running it detailed or predicted as the learner decides.
func feed(a *Accelerator, svc isa.ServiceID, insts uint64) {
	detailed, _ := a.OnServiceStart(svc)
	if detailed {
		a.OnServiceEnd(svc, sig(insts), feedMeas(insts, insts*5))
	} else {
		a.OnServiceEnd(svc, sig(insts), nil)
	}
}

// TestSnapshotRoundTrip is the snapshot layer's core contract:
// Export -> Import -> Export reproduces the state exactly, field for field.
func TestSnapshotRoundTrip(t *testing.T) {
	a := buildRichAccelerator()
	st := a.Export()
	if len(st.Learners) != 3 {
		t.Fatalf("exported %d learners, want 3", len(st.Learners))
	}

	b := NewAccelerator(st.Params)
	if err := b.Import(st); err != nil {
		t.Fatalf("import: %v", err)
	}
	st2 := b.Export()
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("re-exported state differs from original:\n got %+v\nwant %+v", st2, st)
	}
	if got, want := b.Summary(), a.Summary(); got != want {
		t.Errorf("imported summary %+v, original %+v", got, want)
	}
}

// TestSnapshotPredictionParity is the warm-start invariant: an imported
// accelerator must make the same detailed/predicted decisions and return the
// same predictions as the original, instance for instance — its predictions
// come from the same clusters a continuous run would have used.
func TestSnapshotPredictionParity(t *testing.T) {
	a := buildRichAccelerator()
	b := NewAccelerator(a.Params())
	if err := b.Import(a.Export()); err != nil {
		t.Fatalf("import: %v", err)
	}
	svcs := []isa.ServiceID{isa.Sys(isa.SysRead), isa.Sys(isa.SysWrite), isa.Sys(isa.SysOpen)}
	bases := []uint64{1000, 4000, 250}
	for step := 0; step < 300; step++ {
		i := step % len(svcs)
		insts := bases[i] + uint64(step%9)
		if step%31 == 0 {
			insts *= 4
		}
		svc := svcs[i]
		da, cpiA := a.OnServiceStart(svc)
		db, cpiB := b.OnServiceStart(svc)
		if da != db || cpiA != cpiB {
			t.Fatalf("step %d: decision diverged: original (%v, %g), imported (%v, %g)",
				step, da, cpiA, db, cpiB)
		}
		s := sig(insts)
		if da {
			m := feedMeas(insts, insts*5)
			a.OnServiceEnd(svc, s, m)
			b.OnServiceEnd(svc, s, feedMeas(insts, insts*5))
			continue
		}
		pa := a.OnServiceEnd(svc, s, nil)
		pb := b.OnServiceEnd(svc, s, nil)
		if (pa == nil) != (pb == nil) || (pa != nil && *pa != *pb) {
			t.Fatalf("step %d: prediction diverged: original %+v, imported %+v", step, pa, pb)
		}
	}
	if got, want := b.Summary(), a.Summary(); got != want {
		t.Errorf("summaries diverged after parallel driving: imported %+v, original %+v", got, want)
	}
}

// TestSnapshotExportIsDeepCopy asserts continued simulation cannot mutate an
// already-taken snapshot.
func TestSnapshotExportIsDeepCopy(t *testing.T) {
	a := buildRichAccelerator()
	st := a.Export()
	ref := a.Export()
	for step := 0; step < 200; step++ {
		feed(a, isa.Sys(isa.SysRead), 1000+uint64(step%50)*40)
	}
	if !reflect.DeepEqual(st, ref) {
		t.Error("snapshot mutated by continued simulation: Export did not deep-copy")
	}
}

// TestImportValidation rejects every class of corrupt state with ErrBadState,
// leaving the accelerator importable afterwards — corrupt snapshots degrade
// to cold starts, never to poisoned predictions.
func TestImportValidation(t *testing.T) {
	pristine := buildRichAccelerator().Export()
	mutations := map[string]func(st *AccelState){
		"nan centroid":         func(st *AccelState) { st.Learners[0].Table.Clusters[0].Centroid = math.NaN() },
		"negative centroid":    func(st *AccelState) { st.Learners[0].Table.Clusters[0].Centroid = -5 },
		"inf mix centroid":     func(st *AccelState) { st.Learners[0].Table.Clusters[0].MixCentroid[1] = math.Inf(1) },
		"zero cluster members": func(st *AccelState) { st.Learners[0].Table.Clusters[0].N = 0 },
		"negative M2":          func(st *AccelState) { st.Learners[0].Table.Clusters[0].Perf.Cycles.M2 = -1 },
		"moment count over N":  func(st *AccelState) { st.Learners[0].Table.Clusters[0].Perf.IPC.N = 1 << 40 },
		"cluster count over limit": func(st *AccelState) {
			st.Learners[0].Table.Clusters = make([]*Cluster, MaxSnapshotClusters+1)
			for i := range st.Learners[0].Table.Clusters {
				st.Learners[0].Table.Clusters[i] = &Cluster{Centroid: 1, N: 1}
			}
		},
		"phase out of range":      func(st *AccelState) { st.Learners[0].Phase = 7 },
		"ring length mismatch":    func(st *AccelState) { st.Learners[0].Ring = st.Learners[0].Ring[:3] },
		"ring position overflow":  func(st *AccelState) { st.Learners[0].RingPos = len(st.Learners[0].Ring) },
		"outlier id zero":         func(st *AccelState) { st.Learners[0].NextOutID = 0 },
		"negative counter":        func(st *AccelState) { st.Learners[0].Predicted = -1 },
		"nan observed cycles":     func(st *AccelState) { st.Learners[0].ObsCycles = math.NaN() },
		"watchdog pos overflow":   func(st *AccelState) { st.Learners[0].WDPos = len(st.Learners[0].WDRing) },
		"watchdog count mismatch": func(st *AccelState) { st.Learners[0].WDOut = st.Learners[0].WDOut + 1 },
		"duplicate service":       func(st *AccelState) { st.Learners[1].Service = st.Learners[0].Service },
		"bad moving window":       func(st *AccelState) { st.Params.MovingWindow = -1 },
		"bad strategy":            func(st *AccelState) { st.Params.Strategy = Strategy(9) },
		"epo outside unit range": func(st *AccelState) {
			for i := range st.Learners {
				if len(st.Learners[i].Outliers) > 0 {
					st.Learners[i].Outliers[0].EPOs = []float64{1.5}
					return
				}
			}
			panic("rich state has no outliers to corrupt")
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			// Deep-copy via a round trip so mutations never touch pristine.
			tmp := NewAccelerator(pristine.Params)
			if err := tmp.Import(pristine); err != nil {
				t.Fatalf("pristine state failed to import: %v", err)
			}
			st := tmp.Export()
			mutate(st)
			b := NewAccelerator(pristine.Params)
			err := b.Import(st)
			if err == nil {
				t.Fatal("corrupt state imported without error")
			}
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("error %v does not wrap ErrBadState", err)
			}
			// The rejected accelerator is still clean: a cold start (or a
			// later valid import) proceeds normally.
			if err := b.Import(pristine); err != nil {
				t.Fatalf("accelerator unusable after rejected import: %v", err)
			}
		})
	}
}

// TestImportRequiresEmptyAccelerator pins the receiver contract.
func TestImportRequiresEmptyAccelerator(t *testing.T) {
	a := buildRichAccelerator()
	if err := a.Import(a.Export()); err == nil || !errors.Is(err, ErrBadState) {
		t.Errorf("import into a used accelerator = %v, want ErrBadState", err)
	}
}

// TestImportNilState rejects a nil state instead of panicking.
func TestImportNilState(t *testing.T) {
	a := NewAccelerator(DefaultParams())
	if err := a.Import(nil); err == nil || !errors.Is(err, ErrBadState) {
		t.Errorf("import(nil) = %v, want ErrBadState", err)
	}
}

// FuzzSnapshotParity is the warm-start invariant under fuzzed parameters and
// workloads: an accelerator exported at any step and imported into a fresh
// one re-exports the same state, makes the same decisions and predictions as
// the original from then on, and ends with the same summary and state.
//
// knobs picks the parameters, one byte each (missing bytes are 0): strategy, moving window,
// learning window, warm-up skip and Delayed threshold, minimum EPOs and the
// mix-signature/watchdog/fixed-range flags, watchdog threshold, watchdog
// window (0 = the moving window), range fraction. n bounds the instance
// count; ops is cycled, one byte per instance (service, behavior level, mix
// and cycle spread, drifting with the step), and the byte 0xff toggles
// Defer/Arm instead.
func FuzzSnapshotParity(f *testing.F) {
	f.Add([]byte{3, 63, 19, 2 | 3<<2, 3, 0, 0, 3}, uint16(900), uint16(400), []byte{0, 1, 2, 4, 5, 6, 0, 1, 2, 0x20, 0x41, 0x82})
	f.Add([]byte{2, 31, 9, 1 | 3<<2, 3 | 0x20, 3, 10, 3}, uint16(700), uint16(250), []byte{0, 1, 2, 0x1c, 0x1d, 0x1e, 0xff, 0, 1, 2})
	f.Add([]byte{1, 15, 7, 0, 1 | 0x10, 0, 0, 1}, uint16(1200), uint16(600), []byte{0, 1, 2, 0, 1, 2, 0x0c, 0x11, 0x16, 0xe0, 0xe1, 0xe2})
	f.Add([]byte{0, 40, 11, 3, 0x70, 2, 0, 5}, uint16(900), uint16(450), []byte{0, 4, 8, 12, 16, 20, 24, 28, 1, 2})
	f.Add([]byte{3}, uint16(300), uint16(0), []byte{0xff, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, knobs []byte, n, at uint16, ops []byte) {
		if len(ops) == 0 {
			return
		}
		var k [8]byte
		copy(k[:], knobs)
		p := DefaultParams()
		p.Strategy = Strategy(k[0] % 4)
		p.MovingWindow = 1 + int(k[1]%64)
		p.LearnWindow = 1 + int(k[2]%32)
		p.WarmupSkip = int(k[3] % 4)
		p.DelayedThreshold = 1 + int(k[3]>>2)%6
		p.MinEPOs = 1 + int(k[4]%6)
		p.MixSignature = k[4]&0x10 != 0
		if k[4]&0x20 != 0 {
			p.WatchdogThreshold = 0.05 + float64(k[5]%16)/20
			p.WatchdogWindow = int(k[6] % 24)
		}
		if k[4]&0x40 != 0 {
			p.FixedRange = 40
		}
		p.RangeFrac = 0.02 + float64(k[7]%8)/100

		svcs := []isa.ServiceID{isa.Sys(isa.SysRead), isa.Sys(isa.SysWrite), isa.Sys(isa.SysOpen)}
		bases := []uint64{1000, 4000, 250}
		steps := int(n % 2048)
		exportAt := int(at) % (steps + 1)
		a := NewAccelerator(p)
		var b *Accelerator
		importInto := func() {
			st := a.Export()
			b = NewAccelerator(p)
			if err := b.Import(st); err != nil {
				t.Fatalf("import at step %d: %v", exportAt, err)
			}
			if re := b.Export(); !reflect.DeepEqual(st, re) {
				t.Fatalf("re-export at step %d differs:\n got %+v\nwant %+v", exportAt, re, st)
			}
			sameLearners(t, a, b)
		}
		deferred := false
		for i := 0; i < steps; i++ {
			if i == exportAt {
				importInto()
			}
			op := ops[i%len(ops)]
			if op == 0xff {
				deferred = !deferred
				for _, acc := range []*Accelerator{a, b} {
					if acc == nil {
						continue
					}
					if deferred {
						acc.Defer()
					} else {
						acc.Arm()
					}
				}
				continue
			}
			svc := svcs[int(op)%len(svcs)]
			base := bases[int(op)%len(bases)]
			// Behavior levels a third apart, shifting every 200 instances so
			// learned tables go stale, plus rare far outliers.
			level := (uint64(op>>2&7) + uint64(i/200)) % 8
			insts := base + base*level/3 + uint64(i%7)
			if (i+int(op))%29 == 0 {
				insts = 3*insts + uint64(i%11)
			}
			s := Signature{Insts: insts, Loads: insts/3 + uint64(op>>5)*16, Stores: insts / 5, Branches: insts / 7}
			m := &machine.Measurement{Insts: insts, Cycles: insts*(2+uint64(op>>6)) + uint64(i%13)}
			m.L2.Misses = uint64(op % 5)
			m.L1D.Accesses = s.Loads + s.Stores

			da, cpiA := a.OnServiceStart(svc)
			if b != nil {
				if db, cpiB := b.OnServiceStart(svc); da != db || cpiA != cpiB {
					t.Fatalf("step %d: decision diverged: original (%v, %g), imported (%v, %g)", i, da, cpiA, db, cpiB)
				}
			}
			if da {
				a.OnServiceEnd(svc, s, m)
				if b != nil {
					b.OnServiceEnd(svc, s, m)
				}
				continue
			}
			pa := a.OnServiceEnd(svc, s, nil)
			if b != nil {
				if pb := b.OnServiceEnd(svc, s, nil); (pa == nil) != (pb == nil) || (pa != nil && *pa != *pb) {
					t.Fatalf("step %d: prediction diverged: original %+v, imported %+v", i, pa, pb)
				}
			}
		}
		if b == nil {
			importInto()
		}
		if got, want := b.Summary(), a.Summary(); got != want {
			t.Errorf("summary diverged: imported %+v, original %+v", got, want)
		}
		if got, want := b.Health(), a.Health(); got != want {
			t.Errorf("health diverged: imported %+v, original %+v", got, want)
		}
		if got, want := b.Report(), a.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("report diverged: imported %+v, original %+v", got, want)
		}
		if got, want := b.Export(), a.Export(); !reflect.DeepEqual(got, want) {
			t.Errorf("final state diverged:\n got %+v\nwant %+v", got, want)
		}
		sameLearners(t, a, b)
	})
}

// sameLearners compares two accelerators' live learner states directly, so a
// field Export and Import both dropped still shows up as a difference.
func sameLearners(t *testing.T, a, b *Accelerator) {
	t.Helper()
	la, lb := a.Learners(), b.Learners()
	if len(la) != len(lb) {
		t.Fatalf("%d learners, imported %d", len(la), len(lb))
	}
	for i := range la {
		if !reflect.DeepEqual(la[i].LearnerState, lb[i].LearnerState) {
			t.Fatalf("learner %v: live state differs:\n got %+v\nwant %+v", la[i].Service, lb[i].LearnerState, la[i].LearnerState)
		}
	}
}

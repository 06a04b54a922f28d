package main

import (
	"time"

	"fssim/internal/cache"
	"fssim/internal/cpu"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// Fixed-stream probes of the two innermost layers, independent of the
// workload: probeReps repetitions of probeOps calls each, median reported.
const (
	probeReps = 5
	probeOps  = 400_000
)

// xorshift is the probes' fixed pseudo-random address source.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// probeCPU returns host ns per instruction of the out-of-order core with the
// default memory hierarchy, on a stream mixing ALU work, strided and random
// loads and stores over 4 MB, multiplies and loop branches.
func probeCPU() float64 {
	stream := make([]isa.Inst, 4096)
	base, pc := uint64(0x1000_0000), uint64(0x40_0000)
	rng := xorshift(88172645463325252)
	for i := range stream {
		r := rng.next()
		switch i % 8 {
		case 0:
			stream[i] = isa.Inst{Op: isa.ALU, PC: pc, Dep: 4}
		case 1:
			stream[i] = isa.Inst{Op: isa.LOAD, PC: pc + 4, Addr: base + uint64(i%65536)*64, Size: 8, Dep: 1}
		case 2, 3:
			stream[i] = isa.Inst{Op: isa.ALU, PC: pc + 8, Dep: 1}
		case 4:
			stream[i] = isa.Inst{Op: isa.LOAD, PC: pc + 12, Addr: base + r%(4<<20), Size: 8}
		case 5:
			stream[i] = isa.Inst{Op: isa.STORE, PC: pc + 16, Addr: base + uint64(i%32768)*64, Size: 8}
		case 6:
			stream[i] = isa.Inst{Op: isa.MUL, PC: pc + 20}
		default:
			stream[i] = isa.Inst{Op: isa.BRANCH, PC: pc + 24, Taken: i%3 != 0, Target: pc}
		}
	}
	var xs []float64
	for rep := 0; rep < probeReps; rep++ {
		c := cpu.NewOOO(cpu.DefaultConfig(), memsys.New(memsys.DefaultConfig()))
		t := time.Now()
		for n := 0; n < probeOps; n++ {
			c.Exec(&stream[n%len(stream)], cache.OwnerApp)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/probeOps)
	}
	return median(xs)
}

// probeCache returns host ns per access of a 1 MB 8-way cache on a fixed
// stream that is half sequential (mostly hits) and half random over 4 MB
// (mostly misses).
func probeCache() float64 {
	addrs := make([]uint64, 8192)
	rng := xorshift(2463534242)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = uint64(i%4096) * 64
		} else {
			addrs[i] = rng.next() % (4 << 20)
		}
	}
	var xs []float64
	for rep := 0; rep < probeReps; rep++ {
		c := cache.New(cache.Config{Name: "L2", Size: 1 << 20, Assoc: 8, BlockSize: 64, HitLatency: 8})
		t := time.Now()
		for n := 0; n < probeOps; n++ {
			c.Access(addrs[n%len(addrs)], 1, n%4 == 0, cache.OwnerApp)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/probeOps)
	}
	return median(xs)
}

// Package cpu provides the processor timing models of the simulated machine:
// a timestamp-based out-of-order superscalar core, a simpler in-order core,
// and a gshare branch predictor. Both cores are execution-driven: the machine
// feeds them dynamic instructions and they advance a cycle-accurate clock,
// consulting the memory hierarchy for fetch and data latencies.
package cpu

// BranchPredictor is a gshare predictor: a global history register XORed with
// the branch PC indexes a table of 2-bit saturating counters.
type BranchPredictor struct {
	history uint32
	bits    uint
	table   []uint8
	lookups uint64
	misses  uint64
}

// NewBranchPredictor returns a gshare predictor with 2^bits counters.
func NewBranchPredictor(bits uint) *BranchPredictor {
	if bits == 0 {
		bits = 12
	}
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{bits: bits, table: t}
}

// Predict consults and updates the predictor for a branch at pc with actual
// outcome taken, returning whether the prediction was correct.
func (b *BranchPredictor) Predict(pc uint64, taken bool) bool {
	idx := (uint32(pc>>2) ^ b.history) & (1<<b.bits - 1)
	ctr := b.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		b.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = (b.history<<1 | bit(taken)) & (1<<b.bits - 1)
	b.lookups++
	correct := pred == taken
	if !correct {
		b.misses++
	}
	return correct
}

// Stats returns (lookups, mispredictions).
func (b *BranchPredictor) Stats() (lookups, misses uint64) { return b.lookups, b.misses }

func bit(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

package cpu

import (
	"fssim/internal/cache"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// InOrderCore is a blocking in-order model in the style of the simpler
// simulation modes the paper measures for Table 1 (inorder-cache /
// inorder-nocache): single-issue-per-dependence in-order pipeline in which a
// load stalls the machine until its data returns, with the same branch
// predictor and memory hierarchy as the OOO model.
type InOrderCore struct {
	cfg     Config
	mem     *memsys.Hierarchy
	bp      *BranchPredictor
	now     uint64
	slot    int // instructions begun in cycle `now`
	line    uint64
	redo    bool
	retired uint64
	lastCmp uint64 // completion of previous instruction (for dep stalls)
}

// NewInOrder returns an in-order core over mem (nil for ideal memory).
func NewInOrder(cfg Config, mem *memsys.Hierarchy) *InOrderCore {
	return &InOrderCore{cfg: cfg, mem: mem, bp: NewBranchPredictor(cfg.PredictorBits)}
}

// Now implements Core.
func (c *InOrderCore) Now() uint64 { return c.now }

// Retired implements Core.
func (c *InOrderCore) Retired() uint64 { return c.retired }

// Predictor implements Core.
func (c *InOrderCore) Predictor() *BranchPredictor { return c.bp }

// SkipTo implements Core.
func (c *InOrderCore) SkipTo(cycle uint64) {
	if cycle > c.now {
		c.now, c.slot = cycle, 0
	}
	if cycle > c.lastCmp {
		c.lastCmp = cycle
	}
	c.redo = true
}

// Exec implements Core.
func (c *InOrderCore) Exec(in *isa.Inst, owner cache.Owner) uint64 {
	start := c.now
	if c.slot >= c.cfg.IssueWidth {
		start++
		c.slot = 0
	}
	// In-order: any dependence on the previous instruction stalls to its
	// completion; loads always block (no overlap in this mode).
	if in.Dep != 0 || in.Dep2 != 0 {
		if c.lastCmp > start {
			start = c.lastCmp
			c.slot = 0
		}
	}
	// Fetch.
	line := in.PC &^ 63
	if c.redo || line != c.line {
		c.line = line
		c.redo = false
		if c.mem != nil {
			f := c.mem.Fetch(in.PC, start, owner)
			if f > start {
				start, c.slot = f, 0
			}
		} else {
			start++
			c.slot = 0
		}
	}

	var done uint64
	switch in.Op {
	case isa.LOAD:
		if c.mem != nil {
			done = c.mem.Data(in.Addr, int(in.Size), start, false, owner)
		} else {
			done = start + 2
		}
		// Blocking load: the machine stalls until data returns.
		start = done
		c.slot = 0
	case isa.STORE:
		if c.mem != nil {
			c.mem.Data(in.Addr, int(in.Size), start, true, owner)
		}
		done = start + 1
	case isa.BRANCH:
		done = start + 1
		if !c.bp.Predict(in.PC, in.Taken) {
			done += uint64(c.cfg.MispredictCycles)
			start = done
			c.slot = 0
			c.redo = true
		} else if in.Taken {
			c.redo = true
		}
	case isa.SYSCALL, isa.IRET:
		done = start + uint64(c.cfg.ModeSwitchCycles)
		start = done
		c.slot = 0
		c.redo = true
	default:
		done = start + opLatency[in.Op]
	}
	if start > c.now {
		c.now, c.slot = start, 0
	}
	c.slot++
	c.lastCmp = done
	if done > c.now {
		// The in-order machine's committed time tracks the completing
		// instruction for multi-cycle ops.
		c.now, c.slot = done, 0
	}
	c.retired++
	return c.now
}

// ExecBatch implements Core as a loop over Exec.
func (c *InOrderCore) ExecBatch(ins []isa.Inst, owner cache.Owner, stop uint64) (n int, now uint64) {
	now = c.now
	for n < len(ins) {
		now = c.Exec(&ins[n], owner)
		n++
		if now >= stop {
			break
		}
	}
	return n, now
}

var _ Core = (*InOrderCore)(nil)

package cpu

import (
	"unsafe"

	"fssim/internal/cache"
	"fssim/internal/isa"
	"fssim/internal/memsys"
)

// Config describes the processor core. DefaultConfig matches the paper's
// evaluation platform (§5.1): a 4GHz Pentium-4-class machine — 4-wide
// out-of-order issue, up to 3 instructions retired per cycle, 126 in-flight
// instructions, and a 10-cycle branch misprediction penalty.
type Config struct {
	FetchWidth       int
	IssueWidth       int
	RetireWidth      int
	ROBSize          int
	MispredictCycles int
	ModeSwitchCycles int // serialization cost of SYSCALL / IRET
	PredictorBits    uint
}

// DefaultConfig returns the paper's §5.1 core parameters.
func DefaultConfig() Config {
	return Config{
		FetchWidth:       4,
		IssueWidth:       4,
		RetireWidth:      3,
		ROBSize:          126,
		MispredictCycles: 10,
		ModeSwitchCycles: 40,
		PredictorBits:    12,
	}
}

// opLatency gives the execution latency (beyond memory) per opcode class.
var opLatency = [...]uint64{
	isa.NOP: 1, isa.ALU: 1, isa.MUL: 3, isa.DIV: 20, isa.FPU: 4, isa.FDIV: 24,
	isa.LOAD: 0, isa.STORE: 1, isa.BRANCH: 1, isa.SYSCALL: 1, isa.IRET: 1,
}

// Core is a processor timing model. Exec consumes one dynamic instruction
// and ExecBatch a run of them; Now reports the cycle at which the most
// recent instruction committed.
type Core interface {
	// Exec runs one instruction attributed to owner (application or OS) and
	// returns Now, saving the machine a second interface call per
	// instruction.
	Exec(in *isa.Inst, owner cache.Owner) uint64
	// ExecBatch runs ins in order, as that many Exec calls would, but stops
	// after the first instruction whose commit reaches cycle stop — the
	// point at which the machine must fire due events. It returns how many
	// instructions ran (at least one when ins is non-empty) and Now.
	ExecBatch(ins []isa.Inst, owner cache.Owner, stop uint64) (n int, now uint64)
	// Now returns the current committed-time cycle counter.
	Now() uint64
	// Retired returns the number of committed instructions.
	Retired() uint64
	// SkipTo advances the clock to cycle (if ahead of Now) and squashes
	// in-flight state — used after fast-forwarded (predicted) OS services
	// and for idle-time advances.
	SkipTo(cycle uint64)
	// Predictor exposes the branch predictor for statistics.
	Predictor() *BranchPredictor
}

const histSize = 512 // completion-time history ring; must exceed max Dep (255) and ROB size

// OOOCore is a timestamp-based out-of-order superscalar model. Rather than
// simulating every pipeline structure cycle by cycle, it computes, per
// instruction, the cycle at which each pipeline event (fetch, dispatch,
// issue, complete, commit) occurs, subject to the structural constraints:
// fetch width and I-cache latency, ROB occupancy, issue width, operand
// readiness (dataflow through the Dep fields), memory latency with
// MSHR-limited overlap, in-order retirement at the retire width, and branch
// misprediction redirects. The committed-cycle clock this produces responds
// to cache geometry, latency, ILP, and branch behavior the way an
// event-driven OOO model does, at far lower simulation cost.
type OOOCore struct {
	cfg  Config
	mem  *memsys.Hierarchy // nil = ideal memory ("nocache" modes)
	bp   *BranchPredictor
	seq  uint64
	comp [histSize]uint64 // completion time by seq % histSize
	cmt  [histSize]uint64 // commit time by seq % histSize (ROB constraint)

	fetchCycle  uint64
	fetchCount  int // instructions fetched in fetchCycle
	fetchLine   uint64
	redirect    bool // next fetch must re-access the I-cache (taken branch/mispredict)
	dispCycle   uint64
	dispCount   int
	commitCycle uint64
	commitCount int
	lastCommit  uint64
	retired     uint64
}

// NewOOO returns an out-of-order core over mem (nil for ideal memory).
func NewOOO(cfg Config, mem *memsys.Hierarchy) *OOOCore {
	return &OOOCore{cfg: cfg, mem: mem, bp: NewBranchPredictor(cfg.PredictorBits)}
}

// Now returns the committed-time cycle counter.
func (c *OOOCore) Now() uint64 { return c.lastCommit }

// Retired returns committed instruction count.
func (c *OOOCore) Retired() uint64 { return c.retired }

// Predictor returns the branch predictor.
func (c *OOOCore) Predictor() *BranchPredictor { return c.bp }

// SkipTo implements Core.
func (c *OOOCore) SkipTo(cycle uint64) {
	if cycle < c.lastCommit {
		cycle = c.lastCommit
	}
	c.lastCommit = cycle
	c.commitCycle, c.commitCount = cycle, 0
	if c.fetchCycle < cycle {
		c.fetchCycle, c.fetchCount = cycle, 0
	}
	if c.dispCycle < cycle {
		c.dispCycle, c.dispCount = cycle, 0
	}
	// The completion/commit history needs no clamp to the resume point:
	// commits are in order and never precede completion, so every entry is
	// already at or below lastCommit, which cycle never undercuts.
	c.redirect = true
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Exec implements Core: a batch of one.
func (c *OOOCore) Exec(in *isa.Inst, owner cache.Owner) uint64 {
	_, now := c.ExecBatch(unsafe.Slice(in, 1), owner, 0)
	return now
}

// ExecBatch implements Core. It holds the OOO timing model, once for both
// entry points.
func (c *OOOCore) ExecBatch(ins []isa.Inst, owner cache.Owner, stop uint64) (n int, now uint64) {
	cfg := &c.cfg
	for n < len(ins) {
		in := &ins[n]
		n++
		c.seq++
		seq := c.seq

		// --- Fetch: width-limited; new cache line or redirect pays I-cache latency.
		line := in.PC &^ 63
		newLine := c.redirect || line != c.fetchLine
		c.fetchLine = line
		c.redirect = false
		if c.fetchCount >= cfg.FetchWidth {
			c.fetchCycle++
			c.fetchCount = 0
		}
		fetchReady := c.fetchCycle
		if newLine {
			if c.mem != nil {
				fetchReady = c.mem.Fetch(in.PC, c.fetchCycle, owner)
			} else {
				fetchReady = c.fetchCycle + 1
			}
			if fetchReady > c.fetchCycle {
				c.fetchCycle = fetchReady
				c.fetchCount = 0
			}
		}
		c.fetchCount++

		// --- Dispatch: in-order, width-limited, stalling while the ROB is full
		// (the instruction ROBSize ago must have committed before this one can
		// enter the window). Bandwidth is enforced here rather than at issue:
		// issue itself is out of order, so instructions may begin execution
		// earlier than previously-dispatched long-latency ones.
		dispatch := fetchReady
		if c.dispCount >= cfg.IssueWidth {
			c.dispCycle++
			c.dispCount = 0
		}
		if dispatch < c.dispCycle {
			dispatch = c.dispCycle
		}
		if seq > uint64(cfg.ROBSize) {
			if t := c.cmt[(seq-uint64(cfg.ROBSize))%histSize]; t > dispatch {
				dispatch = t
				// Backpressure propagates to fetch.
				if t > c.fetchCycle {
					c.fetchCycle, c.fetchCount = t, 1
				}
			}
		}
		if dispatch > c.dispCycle {
			c.dispCycle, c.dispCount = dispatch, 0
		}
		c.dispCount++

		// --- Operand readiness from the Dep distances; issue is out of order.
		issue := dispatch
		if in.Dep != 0 && uint64(in.Dep) < seq {
			issue = max64(issue, c.comp[(seq-uint64(in.Dep))%histSize])
		}
		if in.Dep2 != 0 && uint64(in.Dep2) < seq {
			issue = max64(issue, c.comp[(seq-uint64(in.Dep2))%histSize])
		}

		// --- Execute.
		var complete uint64
		switch in.Op {
		case isa.LOAD:
			if c.mem != nil {
				complete = c.mem.Data(in.Addr, int(in.Size), issue, false, owner)
			} else {
				complete = issue + 2
			}
		case isa.STORE:
			// Stores drain through the store buffer after retirement: the
			// cache-state update is charged no earlier than the current commit
			// point, so a burst of independent stores cannot flood the memory
			// system ahead of the loads pacing the window.
			if c.mem != nil {
				c.mem.Data(in.Addr, int(in.Size), max64(issue, c.lastCommit), true, owner)
			}
			complete = issue + opLatency[isa.STORE]
		case isa.BRANCH:
			complete = issue + opLatency[isa.BRANCH]
			correct := c.bp.Predict(in.PC, in.Taken)
			if !correct {
				// Redirect fetch after resolution.
				r := complete + uint64(cfg.MispredictCycles)
				if r > c.fetchCycle {
					c.fetchCycle, c.fetchCount = r, 0
				}
				c.redirect = true
			} else if in.Taken {
				c.redirect = true // new fetch line next instruction
			}
		case isa.SYSCALL, isa.IRET:
			// Serializing: drains the pipeline and flushes the front end.
			complete = max64(issue, c.lastCommit) + uint64(cfg.ModeSwitchCycles)
			if complete > c.fetchCycle {
				c.fetchCycle, c.fetchCount = complete, 0
			}
			c.redirect = true
		default:
			complete = issue + opLatency[in.Op]
		}
		c.comp[seq%histSize] = complete

		// --- Commit: in-order, retire-width limited.
		commit := complete
		if commit < c.commitCycle {
			commit = c.commitCycle
		}
		if commit == c.commitCycle && c.commitCount >= cfg.RetireWidth {
			commit++
		}
		if commit > c.commitCycle {
			c.commitCycle, c.commitCount = commit, 0
		}
		c.commitCount++
		c.cmt[seq%histSize] = commit
		c.lastCommit = commit
		c.retired++
		if commit >= stop {
			break
		}
	}
	return n, c.lastCommit
}

var _ Core = (*OOOCore)(nil)

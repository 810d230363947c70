package dataplane

import (
	"fmt"
	"sync/atomic"
)

// SALUOp is one of the stateful-ALU operations the state bank supports
// (§4.1: "Newton supports four types of ALU. As BF needs | and CM needs
// +, the supported ALUs are sufficient").
type SALUOp int

const (
	// OpRead returns the register value unchanged.
	OpRead SALUOp = iota
	// OpWrite stores the operand and returns it.
	OpWrite
	// OpAdd adds the operand and returns the new value (a Count-Min
	// row's increment-and-read).
	OpAdd
	// OpOr ORs the operand in and returns the previous value (a Bloom
	// filter's test-and-set).
	OpOr
	numSALUOps
)

var saluNames = [numSALUOps]string{"read", "write", "add", "or"}

// String names the ALU operation.
func (op SALUOp) String() string {
	if op >= 0 && op < numSALUOps {
		return saluNames[op]
	}
	return fmt.Sprintf("salu(%d)", int(op))
}

// RegisterArray is a stage's stateful memory: a line-rate-transactional
// array of 32-bit registers, each access performing one SALU operation.
//
// Registers are epoch-tagged to implement windowed reset lazily: the
// controller bumps the epoch every window (100 ms in the evaluation), and
// a register written in an older epoch reads as zero. This reproduces
// the "values of reduce and distinct are evaluated and reset every 100ms"
// discipline without a control-plane sweep.
//
// Each register packs its epoch tag and value into one uint64 word
// updated by compare-and-swap, so every SALU transaction is linearizable.
// Hardware performs one such transaction per packet per register at line
// rate; the CAS gives the parallel packet-delivery path (netsim's
// DeliverBatch) the same per-register atomicity, and on the sequential
// path the CAS never retries, keeping results bit-identical to a plain
// read-modify-write.
type RegisterArray struct {
	Name string

	// words[i] = epoch tag (high 32 bits) | value (low 32 bits).
	words []uint64
	epoch atomic.Uint32
}

// NewRegisterArray allocates an array of size registers.
func NewRegisterArray(name string, size uint32) *RegisterArray {
	if size == 0 {
		panic("dataplane: zero-size register array")
	}
	return &RegisterArray{
		Name:  name,
		words: make([]uint64, size),
	}
}

// Size returns the number of registers.
func (ra *RegisterArray) Size() uint32 { return uint32(len(ra.words)) }

// NextEpoch starts a new window: all registers read as zero until
// rewritten. It must not run concurrently with Exec — netsim rolls
// epochs only at batch barriers.
func (ra *RegisterArray) NextEpoch() { ra.epoch.Add(1) }

// Epoch returns the current window number.
func (ra *RegisterArray) Epoch() uint32 { return ra.epoch.Load() }

// Exec performs one stateful-ALU transaction on register idx and returns
// the op's result. Out-of-range indices panic: the hash-calculation
// module is responsible for folding hash results into range, and an
// out-of-range access is a compiler bug, not a runtime condition.
func (ra *RegisterArray) Exec(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %s[%d] out of range (size %d)", ra.Name, idx, len(ra.words)))
	}
	epoch := ra.epoch.Load()
	w := &ra.words[idx]
	switch op {
	case OpRead:
		cur := atomic.LoadUint64(w)
		if uint32(cur>>32) != epoch {
			return 0 // stale window: reads as zero until rewritten
		}
		return uint32(cur)
	case OpWrite:
		// A blind store is linearizable without a CAS loop.
		atomic.StoreUint64(w, uint64(epoch)<<32|uint64(operand))
		return operand
	case OpAdd:
		for {
			cur := atomic.LoadUint64(w)
			val := uint32(cur)
			if uint32(cur>>32) != epoch {
				val = 0
			}
			next := val + operand
			if atomic.CompareAndSwapUint64(w, cur, uint64(epoch)<<32|uint64(next)) {
				return next
			}
		}
	case OpOr:
		for {
			cur := atomic.LoadUint64(w)
			val := uint32(cur)
			if uint32(cur>>32) != epoch {
				val = 0
			}
			if atomic.CompareAndSwapUint64(w, cur, uint64(epoch)<<32|uint64(val|operand)) {
				return val
			}
		}
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// ExecSeq is Exec without the LOCK-prefixed instructions, for
// single-goroutine delivery (Context.Sequential). It performs the same
// epoch-tagged read-modify-write; on the sequential path Exec's CAS
// never retries, so the two produce bit-identical results.
func (ra *RegisterArray) ExecSeq(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %s[%d] out of range (size %d)", ra.Name, idx, len(ra.words)))
	}
	epoch := ra.epoch.Load()
	w := &ra.words[idx]
	cur := *w
	val := uint32(cur)
	if uint32(cur>>32) != epoch {
		val = 0 // stale window: reads as zero until rewritten
	}
	switch op {
	case OpRead:
		return val
	case OpWrite:
		*w = uint64(epoch)<<32 | uint64(operand)
		return operand
	case OpAdd:
		next := val + operand
		*w = uint64(epoch)<<32 | uint64(next)
		return next
	case OpOr:
		*w = uint64(epoch)<<32 | uint64(val|operand)
		return val
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// MemoryBytes returns the SRAM footprint of the value array.
func (ra *RegisterArray) MemoryBytes() int { return len(ra.words) * 4 }

// Snapshot returns a copy of registers [offset, offset+width) as of the
// current epoch. Registers last written in an older epoch read as zero,
// exactly as OpRead sees them — so a snapshot taken just before
// NextEpoch captures the ending window's final state. Reads are atomic per register; taken at an
// epoch boundary (netsim and the agents roll epochs only at batch
// barriers) the snapshot is a consistent view of the window.
func (ra *RegisterArray) Snapshot(offset, width uint32) []uint32 {
	if offset+width > uint32(len(ra.words)) || offset+width < offset {
		panic(fmt.Sprintf("dataplane: snapshot of %s[%d:%d] out of range (size %d)",
			ra.Name, offset, offset+width, len(ra.words)))
	}
	dst := make([]uint32, width)
	epoch := ra.epoch.Load()
	for i := uint32(0); i < width; i++ {
		cur := atomic.LoadUint64(&ra.words[offset+i])
		if uint32(cur>>32) == epoch {
			dst[i] = uint32(cur)
		}
	}
	return dst
}

package modules

import (
	"sync/atomic"

	"github.com/newton-net/newton/internal/obs"
)

// This file implements the sharded multi-worker engine: per-worker
// execution lanes (dispatch cache, hash memos, counters, latency
// sampling) over one set of shared state banks.
//
// Two disciplines govern shared state under parallel delivery:
//
//   - Control-path state (classification, memos, counters) is always
//     worker-private: a lane is driven by one goroutine at a time
//     (dataplane.Context.Lane), so the per-packet path takes no locks
//     and issues no LOCK-prefixed instructions for it.
//
//   - Data-path state (the register banks) is shared by every lane, as
//     on the switch: each stateful-ALU access is one linearizable CAS
//     transaction, so every bank slot ends a window with the same value
//     under any interleaving. A chain that reads several rows (a
//     Count-Min minimum) does so through separate transactions, so which
//     packet observes a threshold crossing can depend on interleaving;
//     see DESIGN.md section 12.

// engineLane is one worker's private execution state. The leading and
// trailing pads keep hot per-lane counters on distinct cachelines so
// neighboring workers never false-share. All counters are single-writer
// (the lane's goroutine) and read by scrapes with atomic loads; writes
// use store-after-load atomics — plain MOVs on x86-64, no LOCK prefix.
type engineLane struct {
	_ [8]uint64

	pkts           uint64
	dispatchMisses uint64
	modExecs       [NumKinds]uint64

	// version/entries form the lane's dispatch cache: newton_init's
	// LookupAll result memoized per classifier input, valid only at the
	// recorded classifier version. Lock-free: only the lane's goroutine
	// touches the map.
	version uint64
	entries map[dispatchKey]*dispatchEntry

	// execNS, when set via AttachObs, receives 1-in-execSampleEvery
	// sampled whole-Execute latencies for this lane. Nil when unobserved
	// so the fast path pays only a nil check.
	execNS *obs.Histogram

	_ [8]uint64
}

// lookup returns the lane's cached entry for k at the given classifier
// version.
func (l *engineLane) lookup(version uint64, k *dispatchKey) *dispatchEntry {
	if l.version != version || l.entries == nil {
		return nil
	}
	return l.entries[*k]
}

// store records the entry for k at the given classifier version,
// flushing the cache when the version moved or the entry cap is hit.
func (l *engineLane) store(version uint64, k *dispatchKey, e *dispatchEntry) {
	if l.version != version || l.entries == nil || len(l.entries) >= maxDispatchEntries {
		l.entries = make(map[dispatchKey]*dispatchEntry)
		l.version = version
	}
	l.entries[*k] = e
}

// bump increments a single-writer counter without a LOCK prefix while
// keeping concurrent atomic readers exact, and returns the new value.
func bump(p *uint64) uint64 {
	v := atomic.LoadUint64(p) + 1
	atomic.StoreUint64(p, v)
	return v
}

// add is bump for arbitrary increments.
func add(p *uint64, n uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+n)
}

// Workers returns the engine's lane count.
func (e *Engine) Workers() int { return len(e.lanes) }

// SetWorkers sizes the engine for n delivery workers, one private lane
// per worker. Call it from the control plane (not concurrently with
// Execute); counters accumulated so far are preserved — folded into
// lane 0 when shrinking.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n == len(e.lanes) {
		return
	}
	for len(e.lanes) > n {
		last := e.lanes[len(e.lanes)-1]
		l0 := e.lanes[0]
		add(&l0.pkts, atomic.LoadUint64(&last.pkts))
		add(&l0.dispatchMisses, atomic.LoadUint64(&last.dispatchMisses))
		for k := range last.modExecs {
			add(&l0.modExecs[k], atomic.LoadUint64(&last.modExecs[k]))
		}
		e.lanes = e.lanes[:len(e.lanes)-1]
	}
	for len(e.lanes) < n {
		l := new(engineLane)
		if e.laneObs != nil {
			l.execNS = e.laneObs(len(e.lanes))
		}
		e.lanes = append(e.lanes, l)
	}
}

// RollEpoch ends the current evaluation window: every register epoch
// of the layout's pipeline rolls, so the banks read as zero until
// rewritten. It is the one epoch-roll entry point of the engine.
func (e *Engine) RollEpoch() {
	e.layout.Pipeline().NextEpoch()
}

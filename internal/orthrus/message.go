package orthrus

import (
	"slices"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/txn"
)

// message kinds.
const (
	msgAcquire uint8 = iota
	msgRelease
)

// message is the unit exchanged on rings. Forwarded acquires and grants
// reuse msgAcquire: the receiver's role disambiguates. Every message names
// its transaction by wrapper, whoever consumes the ring: on the tcp plane
// the net stepper frames it from the wrapper and resolves what it decodes
// back to one (transport.go).
type message struct {
	kind uint8
	w    *wrapper
}

// wrapper carries a transaction through the CC chain. Field ownership:
//
//   - c: the submission's engine.Completion, which owns the transaction.
//     Only the owning exec thread uses it: it discharges it inline
//     (Finish), hands it to the WAL flusher (Defer) or moves it to a
//     fresh wrapper on an OLLP replan. No CC thread reads it — the plan
//     travels in opsByCC — and putWrapper clears it.
//   - id, owner, hops, opsByCC: written by the owning exec thread before
//     submission, read-only afterwards.
//   - hopIdx, pending: touched only by the CC thread currently processing
//     the wrapper (exactly one at any time — the chain is sequential).
//   - reqs[i]: sized by the planner (addHop), then written and read only
//     by CC thread hops[i].
//   - refs: one reference per observer of the wrapper — each CC hop and
//     the owning exec thread; on a tcp exec node the net stepper holds
//     the remote hops' references. The last decrement recycles the
//     wrapper (runState.dropRef), so it cannot be reused while any thread
//     may still touch it. The transaction is not the wrapper's to recycle:
//     its completion does that.
//
// Ring transfer provides the happens-before edges between owners.
//
// Wrappers are pooled (runState.wraps): hops, opsByCC and reqs keep
// their backing arrays across lives, so steady-state planning performs
// no allocation.
type wrapper struct {
	c     engine.Completion // started at window entry; kept across OLLP restarts
	owner int

	// id is the transaction's wire identity on the networked transport:
	// unique per submission attempt (an OLLP replan draws a fresh one
	// too, so one id never names two generations of lock state). The
	// in-process plane carries it but never reads it.
	id uint64

	hops    []int        // CC ids, ascending
	opsByCC [][]txn.Op   // parallel to hops
	reqs    [][]localReq // parallel to opsByCC: one request slot per op

	hopIdx  int
	pending int
	refs    atomic.Int32

	// wireReleases is the CC node's countdown of release messages still
	// expected for this wrapper's wire id, private to its net stepper
	// (see netStepper.materialize).
	wireReleases int
}

// resetPlan truncates the planning slices, keeping every backing array
// (including the inner opsByCC/reqs buffers, which addHop re-extends
// within capacity) for the wrapper's next plan or life.
func (w *wrapper) resetPlan() {
	w.hops = w.hops[:0]
	w.opsByCC = w.opsByCC[:0]
	w.reqs = w.reqs[:0]
}

// addHop appends CC thread cc to the chain and returns the hop's op
// slots, nOps long, for the caller to fill. The hop's request slots are
// sized here too, before the chain is published: a CC thread links them
// into lock queues by address, so they must not move once the first is
// inserted. Inner buffers a previous life (or plan attempt) left are
// reused; a wrapper allocates only while it has never been this wide.
func (w *wrapper) addHop(cc, nOps int) []txn.Op {
	n := len(w.hops)
	w.hops = append(w.hops, cc)
	if n < cap(w.opsByCC) {
		w.opsByCC = w.opsByCC[:n+1]
	} else {
		w.opsByCC = append(w.opsByCC, nil)
	}
	if n < cap(w.reqs) {
		w.reqs = w.reqs[:n+1]
	} else {
		w.reqs = append(w.reqs, nil)
	}
	w.opsByCC[n] = slices.Grow(w.opsByCC[n][:0], nOps)[:nOps]
	w.reqs[n] = slices.Grow(w.reqs[n][:0], nOps)[:nOps]
	return w.opsByCC[n]
}

// hopOf returns the index of CC thread c in the wrapper's chain.
func (w *wrapper) hopOf(c int) int {
	for i, h := range w.hops {
		if h == c {
			return i
		}
	}
	panic("orthrus: CC thread received message for foreign transaction")
}

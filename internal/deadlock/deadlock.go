// Package deadlock implements the four deadlock policies the paper
// evaluates for two-phase locking (§4, Figure 4):
//
//   - Block: never aborts; safe only under ordered acquisition. Used by
//     the locking engine's Deadlock-free footprint, so the Figure-4
//     comparison isolates the cost of the dynamic handlers exactly as the
//     paper intends.
//   - WaitDie: timestamp-based proactive avoidance. An older requester
//     may wait for a younger holder; a younger requester dies. False
//     positives abort transactions that were never deadlocked.
//   - WaitForGraph: explicit waits-for edges, partitioned per worker
//     thread as in Yu et al. [50]; a requester that closes a cycle aborts.
//   - Dreadlocks: Koskinen & Herlihy's digest scheme [24] as used in
//     Shore-MT. Each waiting thread publishes the transitive closure of
//     the threads it waits on as a bitmap; a thread that observes itself
//     in a blocker's digest has found a cycle and aborts.
package deadlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
)

// Block is the no-abort policy for ordered (deadlock-free) acquisition.
type Block struct{}

// Name implements lock.Handler.
func (Block) Name() string { return "deadlock-free" }

// OnConflict implements lock.Handler: always wait.
func (Block) OnConflict(*lock.Request, []*lock.Request) lock.Decision { return lock.Wait }

// Wait implements lock.Handler by parking until granted.
func (Block) Wait(_ *lock.Table, req *lock.Request) bool {
	req.AwaitToken()
	return true
}

// OnGranted implements lock.Handler.
func (Block) OnGranted(*lock.Request) {}

// OnAborted implements lock.Handler.
func (Block) OnAborted(*lock.Request) {}

// WaitDie aborts a requester that is younger than any conflicting request
// ahead of it. Waits therefore only ever go from older to younger
// transactions, which makes the waits-for relation acyclic.
type WaitDie struct{}

// Name implements lock.Handler.
func (WaitDie) Name() string { return "2pl-waitdie" }

// OnConflict implements lock.Handler.
func (WaitDie) OnConflict(req *lock.Request, ahead []*lock.Request) lock.Decision {
	for _, a := range ahead {
		if req.TS >= a.TS {
			return lock.Die
		}
	}
	return lock.Wait
}

// Wait implements lock.Handler. Wait-die waiters can never deadlock, so
// parking unconditionally is safe.
func (WaitDie) Wait(_ *lock.Table, req *lock.Request) bool {
	req.AwaitToken()
	return true
}

// OnGranted implements lock.Handler.
func (WaitDie) OnGranted(*lock.Request) {}

// OnAborted implements lock.Handler.
func (WaitDie) OnAborted(*lock.Request) {}

// WaitForGraph tracks waits-for edges in per-thread partitions. Because a
// worker thread runs one transaction at a time and acquires its locks
// sequentially, the edges of thread p's current transaction live entirely
// in partition p; cycle detection walks partitions without any global
// latch (paper: "each database thread maintains a local partition of the
// wait-for graph").
type WaitForGraph struct {
	parts []wfgPartition
	// recheck is how often a parked waiter re-runs detection to catch
	// cycles missed by concurrent edge insertion races.
	recheck time.Duration
}

type wfgPartition struct {
	mu  sync.Mutex
	cur uint64   // transaction currently owned by this thread
	out []uint64 // txn ids the current transaction waits for
	_   [40]byte // pad
}

// NewWaitForGraph returns a graph for nthreads worker threads.
func NewWaitForGraph(nthreads int) *WaitForGraph {
	return &WaitForGraph{parts: make([]wfgPartition, nthreads), recheck: time.Millisecond}
}

// Name implements lock.Handler.
func (g *WaitForGraph) Name() string { return "2pl-waitfor" }

// OnConflict implements lock.Handler: record edges, then search for a
// cycle through the new edges.
func (g *WaitForGraph) OnConflict(req *lock.Request, ahead []*lock.Request) lock.Decision {
	p := &g.parts[req.Thread]
	p.mu.Lock()
	p.cur = req.TxnID
	p.out = p.out[:0]
	for _, a := range ahead {
		if a.TxnID != req.TxnID {
			p.out = append(p.out, a.TxnID)
		}
	}
	p.mu.Unlock()
	if g.cycleFrom(req.TxnID, req.Thread) {
		g.clear(req.Thread)
		return lock.Die
	}
	return lock.Wait
}

// cycleFrom reports whether following waits-for edges from start's
// transaction returns to it. The walk snapshots partitions one at a time;
// races with concurrent edge changes can miss a cycle (caught by the
// parked waiter's periodic recheck) or report a stale one (a false
// positive abort, which is safe).
func (g *WaitForGraph) cycleFrom(start uint64, startThread int) bool {
	var stack []uint64
	var visited []uint64
	p := &g.parts[startThread]
	p.mu.Lock()
	stack = append(stack, p.out...)
	p.mu.Unlock()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == start {
			return true
		}
		if containsU64(visited, id) {
			continue
		}
		visited = append(visited, id)
		// Find the thread running id, if it is currently waiting.
		for i := range g.parts {
			q := &g.parts[i]
			q.mu.Lock()
			if q.cur == id {
				stack = append(stack, q.out...)
			}
			q.mu.Unlock()
		}
	}
	return false
}

func containsU64(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (g *WaitForGraph) clear(thread int) {
	p := &g.parts[thread]
	p.mu.Lock()
	p.out = p.out[:0]
	p.mu.Unlock()
}

// Wait implements lock.Handler: park, but re-run detection periodically so
// cycles formed by concurrent insertions are still resolved.
func (g *WaitForGraph) Wait(_ *lock.Table, req *lock.Request) bool {
	timer := time.NewTimer(g.recheck)
	defer timer.Stop()
	for {
		select {
		case <-req.Ready():
			return true
		case <-timer.C:
			if g.cycleFrom(req.TxnID, req.Thread) {
				return false
			}
			timer.Reset(g.recheck)
		}
	}
}

// OnGranted implements lock.Handler.
func (g *WaitForGraph) OnGranted(req *lock.Request) { g.clear(req.Thread) }

// OnAborted implements lock.Handler.
func (g *WaitForGraph) OnAborted(req *lock.Request) { g.clear(req.Thread) }

// Dreadlocks implements digest-based detection. Digests are bitmaps over
// worker-thread ids (one active transaction per thread), published in a
// shared array that blockers' waiters spin on — deliberately reproducing
// the cache-coherence traffic the paper attributes to the scheme (§4.4.1).
type Dreadlocks struct {
	words   int
	digests []atomic.Uint64 // thread t owns digests[t*words : (t+1)*words]
}

// NewDreadlocks returns a digest table for nthreads worker threads.
func NewDreadlocks(nthreads int) *Dreadlocks {
	words := (nthreads + 63) / 64
	if words == 0 {
		words = 1
	}
	return &Dreadlocks{words: words, digests: make([]atomic.Uint64, nthreads*words)}
}

// Name implements lock.Handler.
func (d *Dreadlocks) Name() string { return "2pl-dreadlocks" }

// OnConflict implements lock.Handler: always try waiting; the spin loop
// performs detection.
func (d *Dreadlocks) OnConflict(*lock.Request, []*lock.Request) lock.Decision {
	return lock.Wait
}

// Wait implements lock.Handler: spin, unioning direct blockers' digests
// into our own published digest; abort on seeing ourselves.
func (d *Dreadlocks) Wait(t *lock.Table, req *lock.Request) bool {
	me := req.Thread
	myWord, myBit := me/64, uint64(1)<<(me%64)
	union := make([]uint64, d.words)
	var blockers []int
	for {
		if req.Granted() {
			req.DrainToken()
			d.clearDigest(me)
			return true
		}
		var waiting bool
		blockers, waiting = t.Blockers(req, blockers)
		if !waiting {
			// Granted between the check above and Blockers' latch.
			req.AwaitToken()
			d.clearDigest(me)
			return true
		}
		for i := range union {
			union[i] = 0
		}
		for _, b := range blockers {
			base := b * d.words
			for w := 0; w < d.words; w++ {
				union[w] |= d.digests[base+w].Load()
			}
		}
		if union[myWord]&myBit != 0 {
			// A blocker (transitively) waits on us: cycle.
			d.clearDigest(me)
			return false
		}
		// Publish {me} ∪ union(blockers).
		base := me * d.words
		for w := 0; w < d.words; w++ {
			v := union[w]
			if w == myWord {
				v |= myBit
			}
			d.digests[base+w].Store(v)
		}
		runtime.Gosched()
	}
}

func (d *Dreadlocks) clearDigest(thread int) {
	base := thread * d.words
	for w := 0; w < d.words; w++ {
		d.digests[base+w].Store(0)
	}
}

// OnGranted implements lock.Handler.
func (d *Dreadlocks) OnGranted(req *lock.Request) { d.clearDigest(req.Thread) }

// OnAborted implements lock.Handler.
func (d *Dreadlocks) OnAborted(req *lock.Request) { d.clearDigest(req.Thread) }

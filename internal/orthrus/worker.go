package orthrus

import (
	"sync"
	"time"

	"repro/internal/engine"
)

// Logical threads and physical workers.
//
// The paper's CC and execution threads each own a core and meet only on
// the message plane. Here they are *logical* threads: an execThread or a
// ccThread is a private state machine with a non-blocking step method —
// one pass of drain, handle, publish — and it is a worker goroutine that
// calls step. On the tcp transport the node's socket is one more of them
// (netStepper, transport.go). A session starts min(hosted logical threads,
// GOMAXPROCS) workers, each sweeping a fixed, disjoint set of logical
// threads for the session's whole life, and backing off
// (engine.IdleWaiter) only when a full sweep moved nothing.
//
// With GOMAXPROCS ≥ threads every worker hosts exactly one logical
// thread: the paper's one-thread-per-core layout, dedicated polling
// included. On a smaller machine the same loop folds several logical
// threads onto each worker instead of handing the surplus to the Go
// scheduler, where every empty poll of an oversubscribed spinner is a
// trip through the global run queue and a hop's consumer runs only when
// the rotation reaches it.
//
// Folding changes who calls step, and nothing else:
//
//   - Every logical thread is hosted by exactly one worker, so its lock
//     table, pools, outboxes and scratch buffers stay single-owner and
//     latch-free (§3.1), and every ring keeps one producer and one
//     consumer — which may now be the same goroutine.
//   - Every cross-component interaction is still a message on the same
//     SPSC rings; a co-hosted exec→CC hop is a ring write and a ring read
//     a few hundred nanoseconds apart. The §3.3 message counts
//     (MessageStats) do not depend on the layout.
//   - No step may wait for another logical thread — the other thread may
//     be next in this worker's sweep. A full ring therefore leaves the
//     unpublished tail in the sender's outbox for its next step (see
//     outbox.flush).
type stepper interface {
	// step makes one non-blocking pass over the logical thread's inputs.
	// progress reports that the pass consumed or published something;
	// exit that the thread has retired and must not be stepped again.
	step() (progress, exit bool)
}

// slot names one logical thread of a session: execution thread id, CC
// thread id, or the net stepper.
type slot struct {
	cc, net bool
	id      int
}

// layout assigns a node's logical threads to min(threads, procs) workers.
// Threads are ordered exec0, cc0, exec1, cc1, … (whichever of the two
// exist) and split into contiguous, near-equal runs, so exec i and CC i
// share a worker whenever threads are folded two or more to a worker —
// the hop between them then needs no scheduler at all. The net stepper,
// when the node has one, goes last.
func layout(nExec, nCC int, net bool, procs int) [][]slot {
	order := make([]slot, 0, nExec+nCC+1)
	for i := 0; i < nExec || i < nCC; i++ {
		if i < nExec {
			order = append(order, slot{cc: false, id: i})
		}
		if i < nCC {
			order = append(order, slot{cc: true, id: i})
		}
	}
	if net {
		order = append(order, slot{net: true})
	}
	n := len(order)
	workers := min(n, procs)
	out := make([][]slot, workers)
	for w := range out {
		out[w] = order[w*n/workers : (w+1)*n/workers]
	}
	return out
}

// wireSpin is the yield phase of the worker that hosts the net stepper,
// four times the default. While it yields it keeps a P cycling through the
// scheduler, which is what fires the other workers' 50 µs sleeps on time;
// once every worker of a node sleeps, a sleep ends when the netpoller's
// millisecond wait does. The open-loop tcp benchmark offers a commit
// every 250 µs on average, so 13 % of its gaps outlast the default 500 µs
// and its median commit then pays that (p50 28 µs with this, 518 µs
// without, on two procs); 0.03 % outlast this.
const wireSpin = 2 * time.Millisecond

// hosted is one logical thread bound to its worker: the stepper and the
// WaitGroup Close waits on for its role.
type hosted struct {
	stepper
	retired *sync.WaitGroup
}

// host builds the worker's logical threads. It runs on the worker
// goroutine, not in Start, so a session's set-up cost is not the sum of
// its threads' allocations.
//
//orthrus:coldpath once per worker, before its first sweep
func (ses *session) host(slots []slot) []hosted {
	threads := make([]hosted, len(slots))
	for i, sl := range slots {
		switch {
		case sl.net:
			n := ses.s.tr.wire()
			threads[i] = hosted{n, &n.retired}
		case sl.cc:
			threads[i] = hosted{newCCThread(ses.s, sl.id), &ses.ccWg}
		default:
			threads[i] = hosted{newExecThread(ses, sl.id, ses.set.Thread(sl.id)), &ses.execWg}
		}
	}
	return threads
}

// work is a worker goroutine: sweep the hosted logical threads until all
// have retired. A retired thread is dropped from the sweep and its
// WaitGroup released at once, so Close's execWg.Wait → ccStop → ccWg.Wait
// sequence sees logical threads, and a worker keeps stepping its CC
// threads after its execution threads are gone. The worker idles only
// when a whole sweep made no progress: a co-hosted thread's output is
// another's input within the same sweep or the next.
//
//orthrus:hotpath
func (ses *session) work(slots []slot) {
	threads := ses.host(slots)
	var idle engine.IdleWaiter
	if slots[len(slots)-1].net { // layout puts it last
		idle.Spin = wireSpin
	}
	live := len(threads)
	for {
		progress := false
		for i := range threads {
			th := &threads[i]
			if th.stepper == nil {
				continue
			}
			p, exit := th.step()
			if p {
				progress = true
			}
			if exit {
				th.stepper = nil
				th.retired.Done()
				live--
			}
		}
		if live == 0 {
			// At once, not after one more backoff: Close is already
			// running, and a worker parked in a yield or a sleep still
			// pins the session — and the database under it — for a
			// collector to trace.
			return
		}
		if progress {
			idle.Reset()
		} else {
			idle.Wait()
		}
	}
}

package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Engine is the service-style lifecycle every system implements: the
// engine's threads are started once and then serve transactions submitted
// by outside callers. The load drivers (RunClosedLoop, RunOpenLoop) are
// ordinary clients; a network server would be another.
type Engine interface {
	// Name identifies the system in harness output.
	Name() string
	// Start launches the engine's threads and returns a live Session.
	// One live session per engine at a time.
	Start() Session
	// Clients returns the natural closed-loop concurrency: the number of
	// submitters (each with one transaction outstanding) that saturates
	// the engine's workers without starving or drowning them.
	Clients() int
}

// Session accepts transactions for a started Engine.
//
// Submissions are executed to completion — an engine retries aborted
// transactions until they commit — and the completion callback fires
// exactly once per submission. Submit may block for backpressure when the
// engine's input queue is full. No Submit may be issued concurrently with
// or after Close.
//
// The latency histogram in the session's Result records service latency:
// from the moment an engine worker picks the transaction up to its
// commit, retries included — so cross-engine comparisons are unaffected
// by driver-side queueing. Callers who want request latency (queueing
// included) measure at the completion callback, as RunOpenLoop does.
type Session interface {
	// Submit hands t to the engine. done, if non-nil, is invoked exactly
	// once from an engine worker thread when t completes; committed is
	// always true, since every engine retries until commit. The callback
	// must be cheap and must not block, or it will stall the worker.
	Submit(t *txn.Txn, done func(committed bool))
	// Drain blocks until every submitted transaction has completed.
	Drain()
	// Close drains, stops the engine's threads, and returns the session's
	// aggregated metrics. The session is dead afterwards; the Engine may
	// be started again. Submit or Close on a closed session panics.
	Close() metrics.Result
}

// Submission is one queued transaction: the unit engine workers consume.
type Submission struct {
	Txn  *txn.Txn
	Done func(committed bool) // completion callback; may be nil
}

// InUseGuard enforces the documented "one live session per engine at a
// time" Engine contract: Start acquires it, Session.Close releases it,
// and a second concurrent Start panics instead of silently racing two
// sessions on the engine's threads and metrics. Sequential
// Start→Close→Start reuse is explicitly supported.
type InUseGuard struct {
	busy atomic.Bool
}

// Acquire marks the engine in use; name labels the panic.
func (g *InUseGuard) Acquire(name string) {
	if !g.busy.CompareAndSwap(false, true) {
		panic("engine: " + name + ": Start while a previous session is still open (one live session per engine at a time; Close it first)")
	}
}

// Release marks the engine reusable; called from Session.Close.
func (g *InUseGuard) Release() {
	g.busy.Store(false)
}

// Completion carries one submission's completion duties — commit-latency
// recording, the session callback, in-flight retirement, recycling the
// transaction — as a first-class value, and every engine discharges its
// submissions through it: inline at pre-commit (Finish: the paper's
// instant acknowledgment, when durability is off), inline after a
// snapshot read (Snapshots.Exec), or behind a WAL group-commit flush
// (Defer). The completion owns the transaction until one of those fires
// and recycles it last, so an engine's own structures only ever observe
// the transaction while the completion is pending. Defer copies the
// completion into a pooled carrier, so a deferred acknowledgment survives
// the thread moving on to its next transaction without a per-commit
// closure allocation.
type Completion struct {
	in    *Intake
	stats *metrics.ThreadStats
	t     *txn.Txn // recycled via t.Free once the completion fires
	done  func(bool)
	start time.Time
}

// NewCompletion returns sub's completion: picked up from in at start by
// the thread whose stats slot is stats.
func NewCompletion(in *Intake, stats *metrics.ThreadStats, sub Submission, start time.Time) Completion {
	return Completion{in: in, stats: stats, t: sub.Txn, done: sub.Done, start: start}
}

// Txn returns the transaction the completion owns: nil once Finish or
// Defer has taken it.
func (c *Completion) Txn() *txn.Txn { return c.t }

// Finish discharges the completion inline: exactly one Finish (or one
// deferred callback from Defer) must run per submission, once the
// transaction has committed. The service latency recorded spans pickup to
// this call. Finish is the
// transaction's last observer: it fires t.Free afterwards, so the caller
// must not touch t again — the paths that do cleanup after Finish (lock
// release loops) must operate on state they own, never on t's slices.
func (c *Completion) Finish() {
	c.stats.Latency.Record(time.Since(c.start))
	c.discharge()
}

// discharge fires the callback (committed: every engine retries until
// commit), retires the submission from the intake and recycles the
// transaction.
//
// Pool ownership: the transaction is freed after every other completion duty has observed it.
func (c *Completion) discharge() {
	if c.done != nil {
		c.done(true)
	}
	t := c.t
	c.t = nil
	c.in.Done()
	if t != nil && t.Free != nil {
		t.Free()
	}
}

// deferredAck carries a snapshotted Completion to the WAL flusher. Its
// fire func is bound once at pool insertion, so deferring a commit costs
// no allocation in steady state.
type deferredAck struct {
	c    Completion
	fire func()
}

var deferredAcks sync.Pool

func init() {
	// Assigned in init, not the composite literal: New references
	// deferredAck.run, which references the pool back (an initialization
	// cycle the compiler rejects at package scope).
	deferredAcks.New = func() interface{} {
		d := &deferredAck{}
		d.fire = d.run
		return d
	}
}

// run fires the deferred completion once and returns the carrier to the
// pool. The Completion is copied out first so the recycled carrier can be
// reused by another commit immediately. Its latency — which includes the
// flush stall — goes to the AckLatency histogram, which only WAL
// acknowledgments write: fired from the flusher, this may run while the
// thread that deferred it records an inline completion into Latency.
//
// Pool ownership: the carrier returns to the pool before the one-shot fire consumes its snapshot copy.
func (d *deferredAck) run() {
	c := d.c
	d.c = Completion{}
	deferredAcks.Put(d)
	c.stats.AckLatency.Record(time.Since(c.start))
	c.discharge()
}

// Defer returns the commit acknowledgment as a standalone callback for a
// WAL appender: it snapshots the Completion so the acknowledgment can
// fire from the flusher goroutine after the record is durable. From this
// point the flusher owns the completion — and, transitively, the
// transaction's recycling — so the caller must not touch t afterwards.
func (c *Completion) Defer() func() {
	d := deferredAcks.Get().(*deferredAck)
	d.c = *c
	c.t = nil // ownership transferred to the deferred ack
	return d.fire
}

// Stats returns the executing worker's stats slot.
func (c *Completion) Stats() *metrics.ThreadStats { return c.stats }

// WorkerSession is the shared Session implementation for the synchronous
// engines (2PL, Deadlock-free, Partitioned-store): n workers poll the
// session's Intake and run each transaction to completion inline. Engines
// supply only the per-worker execution closure — the queueing, completion
// notification, latency accounting and lifecycle are defined once here
// and in the Intake, whose Submit and Drain the session exposes as its
// own.
type WorkerSession struct {
	*Intake
	set   *metrics.Set
	wg    sync.WaitGroup
	start time.Time
	guard *InUseGuard // released on Close; may be nil (tests)
}

// NewWorkerSession starts n workers. newWorker builds each worker's
// execution closure (per-worker contexts, freelists, id sources live in
// the closure); the closure runs one submission to completion and must
// discharge the passed Completion exactly once — inline via Finish or
// Snapshots.Exec, or from a WAL flush via Defer. log, when enabled, is
// the engine's commit log (see NewIntake). A non-nil guard is acquired
// now and released on Close, enforcing the one-live-session contract for
// the owning engine.
func NewWorkerSession(name string, workers, queueCap int, guard *InUseGuard, log *wal.Log,
	newWorker func(thread int, stats *metrics.ThreadStats) func(*txn.Txn, *Completion)) *WorkerSession {
	if guard != nil {
		guard.Acquire(name)
	}
	s := &WorkerSession{
		Intake: NewIntake(name, queueCap, log),
		set:    metrics.NewSet(workers),
		start:  time.Now(),
		guard:  guard,
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			stats := s.set.Thread(i)
			exec := newWorker(i, stats)
			var comp Completion
			var idle IdleWaiter
			for {
				sub, ok := s.Next()
				if !ok {
					if s.Stopped() {
						return
					}
					idle.Wait()
					continue
				}
				idle.Reset()
				comp = NewCompletion(s.Intake, stats, sub, metrics.Now())
				exec(sub.Txn, &comp)
			}
		}(i)
	}
	return s
}

// Close implements Session: the intake drains and stops, the workers
// retire, and the engine is free for its next session.
func (s *WorkerSession) Close() metrics.Result {
	s.Intake.Close()
	s.wg.Wait()
	if s.guard != nil {
		s.guard.Release()
	}
	return metrics.Result{System: s.name, Totals: s.set.Totals(), Duration: time.Since(s.start)}
}

var _ Session = (*WorkerSession)(nil)

// clientWindow is each closed-loop client's pipeline depth. Completions
// are acknowledged with a single atomic increment and clients replenish
// whole windows at a time, so the per-transaction cost a client adds to
// the engine's workers is one intake enqueue and one atomic — no
// parking, no per-transaction scheduler round-trip (which would dominate
// on few-core machines).
const clientWindow = 16

// RunClosedLoop drives e with self-generated closed-loop load for
// roughly the given duration, keeping exactly e.Clients() transactions
// outstanding across a pool of pipelined submitter goroutines (the last
// client takes the remainder window, so the engine's declared saturation
// point is honored, not rounded up).
func RunClosedLoop(e Engine, src workload.Source, duration time.Duration) metrics.Result {
	ses := e.Start()
	outstanding := e.Clients()
	clients := (outstanding + clientWindow - 1) / clientWindow
	RunWorkers(clients, duration, func(client int, stop *atomic.Bool) {
		window := clientWindow
		if rem := outstanding - client*clientWindow; rem < window {
			window = rem
		}
		rng := rand.New(rand.NewSource(int64(client)*2654435761 + 99991))
		var completed atomic.Int64
		var waiting atomic.Bool
		wake := make(chan struct{}, 1)
		notify := func(bool) {
			completed.Add(1)
			// Acknowledge-count first, then check the parked flag: the
			// client re-checks the count after raising the flag, so under
			// sequentially consistent atomics one side always observes the
			// other — a wakeup cannot be lost (a stale token only causes a
			// harmless spurious wake).
			if waiting.Load() {
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}
		var submitted int64
		full := func() bool { return submitted-completed.Load() >= int64(window) }
		for {
			for !full() && !stop.Load() {
				ses.Submit(src.Next(client, rng), notify)
				submitted++
			}
			if stop.Load() {
				break
			}
			// Window full: spin briefly (completions are normally
			// microseconds away), then park so waiting clients do not
			// steal scheduler passes from the engine's threads.
			for spins := 0; full(); spins++ {
				if spins < 16 {
					runtime.Gosched()
					continue
				}
				waiting.Store(true)
				if full() {
					<-wake
				}
				waiting.Store(false)
			}
		}
		for completed.Load() < submitted {
			runtime.Gosched()
		}
	})
	return ses.Close()
}

// OpenLoopResult reports an open-loop run: engine-side totals plus the
// driver-side latency histogram, measured from each transaction's
// scheduled arrival time — so when the system falls behind the offered
// rate, the backlog shows up as latency rather than being coordinated
// away (the usual open-loop discipline).
type OpenLoopResult struct {
	metrics.Result
	// TargetRate is the offered Poisson arrival rate (txns/sec).
	TargetRate float64
	// Submitted counts transactions offered (all complete before the
	// result is returned).
	Submitted uint64
	// Latency is scheduled-arrival-to-commit latency, one sample per
	// submission.
	Latency metrics.Histogram
	// MaxLag is the largest distance the generator itself fell behind
	// its arrival timeline (engine backpressure or generation cost). A
	// MaxLag comparable to the reported percentiles means the driver,
	// not the engine, set them — raise the window or lower the rate.
	MaxLag time.Duration
}

// AchievedRate returns completed transactions per second of wall time.
func (r OpenLoopResult) AchievedRate() float64 { return r.Result.Throughput() }

// RunOpenLoop drives e with Poisson arrivals at rate transactions per
// second for roughly the given duration and reports commit-latency
// percentiles. Arrivals are generated on a single timeline goroutine:
// each transaction is generated ahead of its arrival (during the
// inter-arrival gap, off the latency-critical path) and submitted at
// its scheduled instant; when the engine exerts backpressure the
// generator falls behind and subsequent transactions go out late but
// are measured from their scheduled arrival, so queueing delay is
// charged to latency. MaxLag reports how far the generator itself
// trailed the timeline — the honesty check on single-goroutine
// generation at high rates.
func RunOpenLoop(e Engine, src workload.Source, rate float64, duration time.Duration) OpenLoopResult {
	if rate <= 0 {
		panic("engine: open-loop rate must be positive")
	}
	ses := e.Start()
	// Completion callbacks run on engine worker threads inside the
	// measured commit path, so recording is sharded across independently
	// locked histograms (assigned round-robin at submit time) instead of
	// serializing every worker on one mutex; shards merge after Drain.
	type latShard struct {
		mu sync.Mutex
		h  metrics.Histogram
		_  [64]byte
	}
	shards := make([]latShard, 16)
	var (
		submitted uint64
		maxLag    time.Duration
	)
	rng := rand.New(rand.NewSource(7_654_321))
	start := time.Now()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) >= duration {
			break
		}
		t := src.Next(0, rng) // generate during the gap, before the deadline
		if d := time.Until(next); d > 0 {
			sleep(d)
		} else if lag := -d; lag > maxLag {
			maxLag = lag
		}
		sched := next
		shard := &shards[submitted%uint64(len(shards))]
		submitted++
		ses.Submit(t, func(bool) {
			d := time.Since(sched)
			shard.mu.Lock()
			shard.h.Record(d)
			shard.mu.Unlock()
		})
	}
	ses.Drain()
	res := ses.Close()
	var lat metrics.Histogram
	for i := range shards {
		lat.Merge(&shards[i].h)
	}
	return OpenLoopResult{Result: res, TargetRate: rate, Submitted: submitted, Latency: lat, MaxLag: maxLag}
}

// sleep waits for d with sub-millisecond precision: coarse time.Sleep for
// the bulk, then a yielding spin for the tail the OS timer cannot hit.
func sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > time.Millisecond {
		time.Sleep(d - 500*time.Microsecond)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

package orthrus

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/spsc"
	"repro/internal/txn"
)

// runState is per-session message-plane state.
type runState struct {
	cfg      Config
	execToCC [][]*spsc.Ring[message] // [exec][cc]
	ccToCC   [][]*spsc.Ring[message] // [from][to], used only for from < to; nil on an exec node
	ccToExec [][]*spsc.Ring[message] // [cc][exec]
	// net is the node's half of the networked plane, its socket as a
	// logical thread. Nil on the in-process plane.
	net    *netStepper
	ccStop atomic.Bool

	// wraps pools wrappers, shared across exec and CC threads because
	// any of a wrapper's observers may be the one dropping the final
	// reference.
	wraps sync.Pool

	// ops is the session's message-plane tally (MessageStats after the
	// run): every logical thread counts in its own opCounter and adds it
	// here once, when it retires. perCC[c] is CC thread c's own tally,
	// stored by that thread alone as it retires.
	opsMu sync.Mutex
	ops   opCounter
	perCC []CCStats
}

// hostsCC and hostsExec report which thread roles run in this process;
// on the tcp plane the other role's threads live on the peer node.
func (s *runState) hostsCC() bool   { return s.cfg.Transport.Role != "exec" }
func (s *runState) hostsExec() bool { return s.cfg.Transport.Role != "cc" }

// ccOf routes a record to the CC thread that owns its lock.
func (s *runState) ccOf(table int, key uint64) int {
	return s.cfg.Partition(table, key) % s.cfg.CCThreads
}

func (e *Engine) newRunState() *runState {
	cfg := e.cfg
	s := &runState{cfg: cfg, perCC: make([]CCStats, cfg.CCThreads)}
	s.wraps.New = func() interface{} { return &wrapper{} }
	// The rings exist before any thread, since each thread — the net
	// stepper included — binds to them when built.
	s.execToCC = rings(cfg.ExecThreads, cfg.CCThreads, cfg.QueueCap, false)
	s.ccToExec = rings(cfg.CCThreads, cfg.ExecThreads, grantCap(cfg), false)
	if s.hostsCC() {
		s.ccToCC = rings(cfg.CCThreads, cfg.CCThreads, cfg.QueueCap, true)
	}
	if cfg.Transport.remote() {
		s.net = connect(s)
	}
	return s
}

// rings builds a from×to matrix of rings, without the diagonal when a
// thread never sends to itself.
func rings(from, to, capacity int, skipSelf bool) [][]*spsc.Ring[message] {
	m := make([][]*spsc.Ring[message], from)
	for i := range m {
		m[i] = make([]*spsc.Ring[message], to)
		for j := range m[i] {
			if !skipSelf || i != j {
				m[i][j] = spsc.New[message](capacity)
			}
		}
	}
	return m
}

// grantCap sizes the grant rings to hold the whole in-flight window, so a
// grant never waits a step in its CC thread's outbox for room.
func grantCap(cfg Config) int { return max(cfg.QueueCap, cfg.Inflight) }

// dropRef releases one reference to w. The holder that drops the last
// reference — a CC thread's release processing (on a tcp exec node, the
// net stepper framing a release) or the owning exec thread — returns the
// wrapper to the pool. The refs atomic orders every
// holder's prior work before the recycle.
//
// Pool ownership: the final reference holder recycles the wrapper; all other observers have decremented first.
func (s *runState) dropRef(w *wrapper) {
	if w.refs.Add(-1) == 0 {
		s.putWrapper(w)
	}
}

// putWrapper returns a wrapper whose references are all gone (or that
// was never published to the CC plane) to the pool.
//
// Pool ownership: caller guarantees no thread still holds the wrapper.
func (s *runState) putWrapper(w *wrapper) {
	w.c = engine.Completion{}
	w.hopIdx, w.pending = 0, 0
	w.id, w.wireReleases = 0, 0
	w.resetPlan()
	s.wraps.Put(w)
}

// session is the live engine: CC threads plus execution threads serving
// the session's Intake, whose Drain the session exposes as its own.
// Execution threads pull submissions to top up their asynchronous
// windows, so an outside caller's transactions flow into the same CC
// message plane the closed-loop benchmarks exercise.
type session struct {
	*engine.Intake
	e     *Engine
	s     *runState
	set   *metrics.Set
	snaps *engine.Snapshots // MVCC snapshot tracker; nil without versioned tables
	// execWg and ccWg count *logical* threads: a worker releases one as
	// each thread it hosts retires (worker.go). workers is how many
	// goroutines Start launched to step them.
	execWg  sync.WaitGroup
	ccWg    sync.WaitGroup
	workers int
	start   time.Time
}

// newSession claims the engine and builds a session's state — message
// plane, metrics, intake — without starting anything.
func (e *Engine) newSession() *session {
	snaps := engine.NewSnapshots(e.cfg.DB, e.cfg.Wal, &e.clock, e.cfg.ExecThreads, e.cfg.Snapshot)
	e.inUse.Acquire(e.Name())
	return &session{
		Intake: engine.NewIntake(e.Name(), e.Clients(), e.cfg.Wal),
		e:      e,
		s:      e.newRunState(),
		set:    metrics.NewSet(e.cfg.ExecThreads),
		snaps:  snaps,
		start:  time.Now(),
	}
}

// Start implements engine.Engine. A second Start while a previous
// session is still open panics (engine.InUseGuard): two live sessions
// would race on the engine's message statistics. Sequential
// Start→Close→Start reuse is supported — every closed-loop run does it.
func (e *Engine) Start() engine.Session {
	ses := e.newSession()
	// Logical threads onto workers (worker.go). On the tcp transport only
	// this node's role is hosted, beside its net stepper; the peer
	// process hosts the other's.
	nExec, nCC := 0, 0
	if ses.s.hostsExec() {
		nExec = e.cfg.ExecThreads
	}
	if ses.s.hostsCC() {
		nCC = e.cfg.CCThreads
	}
	workers := layout(nExec, nCC, ses.s.net != nil, runtime.GOMAXPROCS(0))
	ses.workers = len(workers)
	ses.execWg.Add(nExec)
	ses.ccWg.Add(nCC)
	for _, slots := range workers {
		go ses.work(slots)
	}
	return engine.WithCheckpointer(ses, e.cfg.DB, e.cfg.Wal, e.cfg.Checkpoint)
}

// Submit implements engine.Session through the intake (engine.Intake.Submit),
// on the node that hosts the execution threads.
func (ses *session) Submit(t *txn.Txn, done func(committed bool)) {
	if !ses.s.hostsExec() {
		panic("orthrus: " + ses.e.Name() + ": Submit on a node with no execution threads (submit to the exec node)")
	}
	ses.Intake.Submit(t, done)
}

// Close implements engine.Session. It drains outstanding submissions,
// retires the execution threads, lets the CC threads take a final pass
// over straggling releases, and reports the session's metrics. A second
// Close panics: it would release the engine's in-use guard out from under
// a newer session.
func (ses *session) Close() metrics.Result {
	ses.Intake.Close()
	ses.execWg.Wait()
	// Networked shutdown barrier: the exec node flushes its last frames
	// and says goodbye; the cc node holds here until that goodbye, so
	// its CC threads' final drain pass below sees every release.
	n := ses.s.net
	if n != nil {
		n.execRetired()
	}
	ses.s.ccStop.Store(true)
	ses.ccWg.Wait()
	var netStats NetStats
	if n != nil {
		netStats = n.shutdown()
	}

	ops := ses.s.ops // every thread has retired and flushed
	ses.e.msgs = MessageStats{
		Acquires:   ops.acquires,
		Forwards:   ops.forwards,
		Grants:     ops.grants,
		Releases:   ops.releases,
		EnqueueOps: ops.enq,
		DequeueOps: ops.deq,
		PerCC:      ses.s.perCC,
		ExecBatch:  slices.Repeat([]int{ses.s.cfg.BatchSize}, ses.s.cfg.ExecThreads),
		Net:        netStats,
		Workers:    ses.workers,
	}
	ses.e.inUse.Release()
	return metrics.Result{System: ses.e.Name(), Totals: ses.set.Totals(), Duration: time.Since(ses.start)}
}

// Package orthrus implements the paper's system: a transaction manager
// that partitions functionality across threads (§3.1) and plans data
// access for deadlock freedom (§3.2).
//
// # Architecture
//
// A fixed set of concurrency-control (CC) threads own disjoint slices of
// the lock space. Routing is one static function, fixed for the engine's
// life: record → CC thread = Config.Partition(table, key) % CCThreads.
// Each CC thread keeps one private lock table — an open-addressing index
// with no latches (internal/locktab), because no other thread ever reads
// or writes it: a lock is one probe of a cache-resident array and a
// release looks nothing up (cc.go). A fixed set of execution threads run
// transaction logic and never touch lock state. The CC:exec split is
// chosen at start-up, as the paper's Figure 5 sweeps it.
//
// The two groups share no data structures; they communicate through
// single-producer single-consumer rings (internal/spsc), one per ordered
// thread pair, exactly the paper's "N physical queues per logical input
// queue" construction:
//
//	exec e → CC c   : acquire and release messages
//	CC i   → CC j   : forwarded acquires (only i < j, see below)
//	CC c   → exec e : grant notifications
//
// The ring is the plane's only queue type. On the tcp plane
// (TransportConfig) a node keeps the same rings; one whose consumer lives
// on the peer node is drained by the node's net stepper, which frames
// what it takes for the wire (transport.go).
//
// # Lock acquisition
//
// An execution thread routes a transaction's declared access set to CC
// threads, sorts them by id, then sends one acquire message to the
// lowest CC involved. Each CC inserts its local requests, and once all
// are granted forwards the transaction to the next CC in the chain; the
// last CC notifies the owning execution thread — Ncc+1 messages instead
// of 2·Ncc (§3.3, Figure 3). Because the record → CC map never changes
// and every transaction visits CC threads in ascending id order, the
// waits-for relation cannot form a cycle: deadlock is impossible.
//
// Execution threads are asynchronous (§3.3): each keeps a window of
// in-flight transactions and keeps submitting new ones while waiting for
// grants, so queueing delay extends lock hold times but never idles a
// core.
//
// # Logical threads and workers
//
// "Thread" above means a logical thread: a ccThread or an execThread is
// private state plus a non-blocking step method, and the goroutines that
// call step are workers — min(hosted logical threads, GOMAXPROCS) of
// them, each sweeping a fixed, disjoint share of the threads (worker.go).
// On the tcp plane a node hosts one role's threads and its socket,
// which is one more such thread (netStepper, transport.go).
// With GOMAXPROCS ≥ CCThreads+ExecThreads every worker hosts one thread:
// the paper's one-thread-per-core layout. On fewer procs threads are
// folded, exec i beside CC i, rather than left for the Go scheduler to
// time-slice. Either way a logical thread has one host, so lock tables
// stay single-owner and latch-free (§3.1) and rings single-producer
// single-consumer; and every interaction between threads is still a ring
// message, so the §3.3 message counts (MessageStats) are those of the
// unfolded layout. What folding forbids is waiting: no step may block on
// another logical thread's progress, since that thread may be hosted by
// the same worker (see outbox.flush).
//
// # Lifecycle
//
// The engine implements engine.Engine: Start launches the workers that
// run the CC and execution threads and returns a Session whose Submit
// feeds transactions from any caller — a benchmark driver or a server
// front-end — into the execution threads' asynchronous windows.
package orthrus

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/spsc"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Defaults.
const (
	DefaultQueueCap = 256
	DefaultInflight = 8
	// DefaultBatchSize is the message-plane batch exec and CC threads use
	// when Config.BatchSize is 0. No batch holds a message past the end of
	// its step, and past this size the achieved batch barely grows: one
	// step rarely produces more for one destination (the batching
	// experiment).
	DefaultBatchSize = 8
)

// snapGroup is how many consecutive read-only submissions an execution
// thread runs at one snapshot in one resolution pass (flushGroup). One is
// a transaction at a time. On read_mostly the gain grows up to four and
// is flat, within the host's noise, from four to sixteen (CHANGES.md has
// the curve); a member's latency grows with the logic run after it, so
// the constant sits in the middle of the flat part.
const snapGroup = 8

// Config configures an ORTHRUS engine.
type Config struct {
	DB *storage.DB
	// CCThreads and ExecThreads partition the machine's threads between
	// the two roles (Figure 5 explores this trade-off).
	CCThreads   int
	ExecThreads int
	// Partition routes a record to its CC thread; its result is folded
	// modulo CCThreads, so a partitioner with a wider range still locks
	// every declared op. Defaults to txn.HashPartitioner(CCThreads).
	Partition txn.PartitionFunc
	// QueueCap is the ring capacity (default 256).
	QueueCap int
	// Inflight is each execution thread's asynchronous window (default 8).
	Inflight int
	// BatchSize coalesces message-plane traffic: execution threads buffer
	// the acquires and releases they generate within one step
	// per destination CC thread and publish each group with a single ring
	// operation, CC threads do the same for forwards and grants, and both
	// sides drain their input rings in batches — so the per-message cost
	// of an atomic release-store plus a consumer load drops to ~1/k of
	// one. 0 means DefaultBatchSize; 1 reverts to per-message transfer
	// (the unbatched ablation). A batch holds a message for at most one
	// step: every step ends by publishing what its outboxes hold. FIFO
	// order per ring is unaffected — batches are published and consumed
	// in send order.
	BatchSize int
	// Wal, when enabled, makes commit acknowledgment durable: execution
	// threads pipeline redo records into per-thread append buffers at
	// pre-commit — inside the existing asynchronous in-flight window, so
	// CC threads never stall on I/O — and the session completion fires
	// from the group-commit flusher in LSN order. Nil or Off = the
	// paper's instant acknowledgment.
	Wal *wal.Log
	// Snapshot tunes the MVCC snapshot-read path, active when DB has
	// versioned tables: ReadOnly transactions are then served inline on
	// the execution thread at the commit frontier — zero CC messages,
	// the purest form of the paper's separation argument (the CC plane
	// never hears about read-only traffic at all).
	Snapshot engine.SnapshotConfig
	// Checkpoint, when its Store is set, runs a background checkpointer
	// that compacts the Wal into images (requires an enabled Wal); see
	// engine.CheckpointConfig.
	Checkpoint engine.CheckpointConfig
	// Transport places the message plane: the zero value keeps every
	// thread in one process; Kind "tcp" splits CC and execution threads
	// across two OS processes (see TransportConfig).
	Transport TransportConfig
}

// CCStats is one CC thread's share of the message plane — the per-thread
// load breakdown the batching experiment reports. Acquires, Forwards and
// Releases count messages this thread handled (received and processed);
// Grants counts grants it issued. Summed across threads they equal the
// corresponding MessageStats totals — a conservation check the test
// suite asserts.
type CCStats struct {
	Acquires uint64 // exec → this CC acquire messages handled
	Forwards uint64 // CC → this CC forwarded acquires handled
	Releases uint64 // release messages handled
	Grants   uint64 // grant messages issued by this CC
	// QueueHighWater is the largest number of messages drained in one
	// pass over this thread's input rings — a backlog proxy: a thread
	// that keeps up drains small batches, a bottleneck thread finds its
	// rings full.
	QueueHighWater int
}

// Handled returns the messages this CC thread processed.
func (s CCStats) Handled() uint64 { return s.Acquires + s.Forwards + s.Releases }

// MessageStats counts message-plane traffic for one session (the quantity
// §3.3 optimizes: forwarding reduces per-acquisition messages from 2·Ncc
// to Ncc+1).
type MessageStats struct {
	Acquires uint64 // exec → CC acquire messages
	Forwards uint64 // CC → CC forwarded acquires
	Grants   uint64 // CC → exec grant/partial-grant messages
	Releases uint64 // exec → CC release messages

	// EnqueueOps and DequeueOps count transport operations — one per
	// batch publish on the producer side and one per batch consume on
	// the consumer side. On the SPSC ring each operation is a single
	// atomic store, so with BatchSize=1 each counter equals
	// TotalMessages() and with batching they fall toward
	// TotalMessages()/k — the saving the batched message plane exists
	// for.
	EnqueueOps uint64
	DequeueOps uint64

	// PerCC is the per-CC-thread breakdown (receive-side counted, so
	// summing a field across PerCC cross-checks the send-side totals
	// above).
	PerCC []CCStats

	// ExecBatch is each execution thread's publish batch: the configured
	// Config.BatchSize (DefaultBatchSize when left 0) in every entry.
	ExecBatch []int

	// Net counts the session's wire traffic — zero on the in-process
	// plane, per-node frame/message/byte counters on the tcp transport.
	Net NetStats

	// Workers is how many goroutines served this node's logical threads:
	// min(hosted CC + execution threads, plus the net stepper on the tcp
	// transport, GOMAXPROCS) at Start. Equal to the thread count it is the
	// paper's one-thread-per-core layout; smaller, the threads were folded
	// (worker.go) and a result measured this way should say so. Read-only:
	// it reports, it does not configure.
	Workers int
}

// AcquisitionMessages returns the messages spent acquiring locks
// (everything except releases, which both protocols pay identically).
func (m MessageStats) AcquisitionMessages() uint64 {
	return m.Acquires + m.Forwards + m.Grants
}

// TotalMessages returns all messages that crossed the message plane.
func (m MessageStats) TotalMessages() uint64 {
	return m.Acquires + m.Forwards + m.Grants + m.Releases
}

// MessagesPerEnqueue reports the achieved producer-side batching factor:
// messages sent per ring publish operation (1 when unbatched).
func (m MessageStats) MessagesPerEnqueue() float64 {
	if m.EnqueueOps == 0 {
		return 0
	}
	return float64(m.TotalMessages()) / float64(m.EnqueueOps)
}

// message kinds.
const (
	msgAcquire uint8 = iota
	msgRelease
)

// message is the unit exchanged on rings. Forwarded acquires and grants
// reuse msgAcquire: the receiver's role disambiguates. id mirrors
// wrapper.id at push time so the networked transport can serialize a
// release after its wrapper was recycled (releases cross the wire as
// the id alone) and deliver a grant whose wrapper lives in another
// process (w is then nil and the owning exec thread resolves the id);
// the in-process plane ignores it.
type message struct {
	kind uint8
	w    *wrapper
	id   uint64
}

// wrapper carries a transaction through the CC chain. Field ownership:
//
//   - c: the submission's engine.Completion, which owns the transaction.
//     Only the owning exec thread uses it: it discharges it inline
//     (Finish), hands it to the WAL flusher (Defer) or moves it to a
//     fresh wrapper on an OLLP replan. No CC thread reads it — the plan
//     travels in opsByCC — and putWrapper clears it.
//   - owner, hops, opsByCC: written by the owning exec thread before
//     submission, read-only afterwards.
//   - hopIdx, pending: touched only by the CC thread currently processing
//     the wrapper (exactly one at any time — the chain is sequential).
//   - reqs[i]: sized by the planner (addHop), then written and read only
//     by CC thread hops[i].
//   - refs: one reference per observer of the wrapper — each CC hop and
//     the owning exec thread. The last decrement recycles the wrapper
//     (runState.dropRef), so it cannot be reused while any thread may
//     still touch it. The transaction is not the wrapper's to recycle:
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
	// unique per submission attempt (tcp mode draws a fresh id for each
	// OLLP replan, so one id never names two generations of lock
	// state). The in-process plane carries it but never reads it.
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

// addHop appends CC thread cc to the chain and returns the hop's index,
// its op buffer emptied for the caller to fill with the hop's nOps ops.
// The hop's request slots are sized here, before the chain is published:
// a CC thread links them into lock queues by address, so they must not
// move once the first is inserted. Inner buffers a previous life (or plan
// attempt) left are reused; a wrapper allocates only while it has never
// been this wide.
func (w *wrapper) addHop(cc, nOps int) int {
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
	w.opsByCC[n] = w.opsByCC[n][:0]
	w.reqs[n] = slices.Grow(w.reqs[n][:0], nOps)[:nOps]
	return n
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

// Engine is an ORTHRUS instance.
type Engine struct {
	cfg   Config
	msgs  MessageStats // populated when a session closes
	inUse engine.InUseGuard
	clock engine.CommitClock // stamps versioned commits when Wal is off
}

// Messages returns the message-plane traffic of the last closed session
// (every RunClosedLoop closes its session before returning).
func (e *Engine) Messages() MessageStats { return e.msgs }

// Validate panics on nonsensical knobs: thread counts must be positive,
// and fields whose zero value means "use the default" (QueueCap,
// Inflight, BatchSize) are rejected when negative with a clear panic
// rather than surfacing as a hang or an index fault deep inside ring
// construction.
func (c Config) Validate() {
	if c.CCThreads <= 0 || c.ExecThreads <= 0 {
		panic("orthrus: CCThreads and ExecThreads must be positive")
	}
	if c.QueueCap < 0 {
		panic(fmt.Sprintf("orthrus: QueueCap must not be negative (got %d; 0 means default)", c.QueueCap))
	}
	if c.Inflight < 0 {
		panic(fmt.Sprintf("orthrus: Inflight must not be negative (got %d; 0 means default)", c.Inflight))
	}
	if c.BatchSize < 0 {
		panic(fmt.Sprintf("orthrus: BatchSize must not be negative (got %d; 0 means default)", c.BatchSize))
	}
	c.Snapshot.Validate()
	c.Checkpoint.Validate()
	c.Transport.Validate()
}

// New validates the configuration and returns an engine.
func New(cfg Config) *Engine {
	cfg.Validate()
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Inflight == 0 {
		cfg.Inflight = DefaultInflight
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Partition == nil {
		cfg.Partition = txn.HashPartitioner(cfg.CCThreads)
	}
	return &Engine{cfg: cfg}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	base := "orthrus"
	if e.cfg.Transport.remote() {
		base += "-tcp/" + e.cfg.Transport.Role
	}
	return fmt.Sprintf("%s(%dcc/%dex)", base, e.cfg.CCThreads, e.cfg.ExecThreads)
}

// runState is per-session message-plane state.
type runState struct {
	cfg      Config
	execToCC [][]*spsc.Ring[message] // [exec][cc]
	ccToCC   [][]*spsc.Ring[message] // [from][to], used only for from < to; nil on an exec node
	ccToExec [][]*spsc.Ring[message] // [cc][exec]
	// tcp is the node's half of the networked plane: its connection and
	// net stepper. Nil on the in-process plane.
	tcp    *tcpTransport
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

// opCounter is a thread-local tally of the messages a logical thread sent
// and the ring operations it performed, added to the runState's when the
// thread retires: a shared counter bumped per message (five per commit,
// from every thread) would cost what the batched message plane saves.
type opCounter struct {
	acquires, forwards, grants, releases uint64 // messages sent
	enq, deq                             uint64 // ring operations
}

func (o *opCounter) flush(s *runState) {
	s.opsMu.Lock()
	s.ops.acquires += o.acquires
	s.ops.forwards += o.forwards
	s.ops.grants += o.grants
	s.ops.releases += o.releases
	s.ops.enq += o.enq
	s.ops.deq += o.deq
	s.opsMu.Unlock()
	*o = opCounter{}
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
		s.tcp = newTCPTransport(s)
	}
	return s
}

// dropRef releases one reference to w. The holder that drops the last
// reference — a CC thread's release processing or the owning exec
// thread — returns the wrapper to the pool. The refs atomic orders every
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

// Clients implements engine.Engine: enough submitters to fill every
// execution thread's asynchronous window, plus one queued transaction per
// thread so a completed window slot refills without waiting on a client.
func (e *Engine) Clients() int { return e.cfg.ExecThreads * (e.cfg.Inflight + 1) }

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
	workers := layout(nExec, nCC, ses.s.tcp != nil, runtime.GOMAXPROCS(0))
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
	tcp := ses.s.tcp
	if tcp != nil {
		tcp.execDone()
		tcp.ccGate()
	}
	ses.s.ccStop.Store(true)
	ses.ccWg.Wait()
	var netStats NetStats
	if tcp != nil {
		netStats = tcp.shutdown()
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

// ---------------------------------------------------------------------
// Execution threads
// ---------------------------------------------------------------------

type execThread struct {
	s     *runState
	ses   *session
	id    int
	stats *metrics.ThreadStats
	ids   *engine.IDSource
	ctx   engine.PlannedCtx
	sctx  engine.SnapshotCtx

	window   int
	inflight int

	// group holds the read-only submissions the admission loop has taken
	// and not yet run; flushGroup runs its first grouped entries as one
	// snapshot pass.
	group   [snapGroup]engine.Completion
	grouped int

	// Time accounting. exec is transaction logic; lock is the rest of
	// every step that found work (planning, messaging); wait is the rest
	// of the thread's life — empty steps, backoff, and whatever its worker
	// spent on co-hosted threads — settled once, when the thread retires,
	// as born→retire minus the other two. A step reads the clock (now)
	// only once it has found work: stepStart is that first reading, zero
	// while the step is still empty, and logicTime the logic time within
	// the step. A commit adds three readings — pickup, logic start, logic
	// end — and pickup doubles as its step's first. now is metrics.Now
	// outside tests: one monotonic clock read per stamp, where time.Now
	// would also read the wall clock.
	now       func() time.Time
	born      time.Time
	stepStart time.Time
	logicTime time.Duration

	// Planning scratch: ccBuf holds each op's CC thread, countBuf the
	// per-CC op counts for engines wider than plan's stack array.
	ccBuf    []int32
	countBuf []int

	// Batched message plane: out[c] coalesces the acquires and releases
	// for CC thread c. scratch is the batched grant-drain buffer; it is
	// safe to reuse across finish calls because flushing never
	// consumes messages (see outbox.flush), so drainGrants can never
	// re-enter while iterating it.
	out     outboxes
	scratch []message
	ops     opCounter

	// pend maps in-flight wire ids to their wrappers — non-nil only
	// when the CC threads live in another process (tcp transport), so
	// grants arrive as bare ids this thread must resolve. Private to
	// this thread: entries are added in submit and removed in finish.
	pend map[uint64]*wrapper

	// wal is this thread's redo append buffer (nil when durability is
	// off). Commits pipeline into it at pre-commit and the window slot
	// frees immediately, so flush latency overlaps new transactions the
	// same way lock-wait does.
	wal *wal.Appender
}

func newExecThread(ses *session, id int, stats *metrics.ThreadStats) *execThread {
	cfg := ses.s.cfg
	x := &execThread{
		s:      ses.s,
		ses:    ses,
		id:     id,
		stats:  stats,
		ids:    engine.NewIDSource(id),
		ctx:    engine.PlannedCtx{DB: cfg.DB, Stats: stats, VSet: ses.snaps.VersionSet()},
		window: cfg.Inflight,
		now:    metrics.Now,
		born:   metrics.Now(),
		// What a full ring leaves in out[c] needs no back-pressure to stay
		// small: at most a window of acquires plus the releases of
		// transactions granted since c last stepped, and every step of c
		// empties the ring.
		out:     newOutboxes(ses.s.execToCC[id]),
		scratch: make([]message, cfg.BatchSize),
	}
	if cfg.CCThreads > 64 {
		x.countBuf = make([]int, cfg.CCThreads)
	}
	if !ses.s.hostsCC() {
		x.pend = make(map[uint64]*wrapper, cfg.Inflight*2)
	}
	if cfg.Wal.Enabled() {
		x.wal = cfg.Wal.NewAppender(stats)
		x.ctx.Wal = x.wal
	}
	return x
}

// step is one pass of the execution thread: handle grants (run
// transaction logic, pipeline redo into the WAL's append buffers,
// release), top up the asynchronous window from the intake, and
// publish what the pass generated — without blocking, without I/O (the
// group-commit flusher does the writing) and without waiting on any other
// logical thread, which may be hosted by the same worker (worker.go). A
// step that finds nothing to do reads no clock.
//
//orthrus:hotpath
func (x *execThread) step() (progress, exit bool) {
	// Drain grants from every CC thread.
	x.drainGrants()

	// Top up the asynchronous window from the intake. A read-only
	// submission takes no window slot: it joins the group, which runs
	// when full and once the loop ends, so none waits past this step.
	for x.inflight < x.window {
		sub, ok := x.ses.Intake.Next()
		if !ok {
			break
		}
		start := x.now()
		if x.stepStart.IsZero() {
			x.stepStart = start
		}
		sub.Txn.ID = x.ids.Next()
		c := engine.NewCompletion(x.ses.Intake, x.stats, sub, start)
		if sub.Txn.ReadOnly && x.ses.snaps != nil {
			x.group[x.grouped] = c
			if x.grouped++; x.grouped == snapGroup {
				x.flushGroup()
			}
			continue
		}
		x.submit(c)
	}
	x.flushGroup()
	worked := !x.stepStart.IsZero()

	// Publish everything this step coalesced — and whatever a full ring
	// left over from earlier ones — before reporting idle or retiring: a
	// buffered acquire must not wait on traffic that may never come, and
	// a buffered release may be the one unblocking another thread's
	// transaction.
	published := x.out.flushAll(&x.ops)

	if worked {
		// Everything in this step that was not transaction logic is
		// messaging/planning overhead: the locking bucket.
		x.stats.AddLock(x.now().Sub(x.stepStart) - x.logicTime)
		x.stepStart, x.logicTime = time.Time{}, 0
		return true, false
	}
	if x.inflight == 0 && x.ses.Intake.Stopped() && x.out.empty() {
		// Close drains all submissions before stopping the intake, so
		// nothing can arrive after this check, and every release this
		// thread owed is in a ring (the outboxes are empty), where the
		// CC threads' last passes will find it. The thread's books close
		// here, with the logical thread — its worker may go on stepping
		// others.
		x.ops.flush(x.s)
		x.stats.AddWait(x.now().Sub(x.born) - time.Duration(x.stats.ExecNanos+x.stats.LockNanos))
		return false, true
	}
	return published, false
}

// working marks the current step productive, reading the clock if this is
// the first work the step has found.
func (x *execThread) working() {
	if x.stepStart.IsZero() {
		x.stepStart = x.now()
	}
}

// drainGrants batch-consumes every CC→exec grant ring.
func (x *execThread) drainGrants() {
	for c := 0; c < x.s.cfg.CCThreads; c++ {
		q := x.s.ccToExec[c][x.id]
		for {
			n := q.DequeueBatch(x.scratch)
			if n == 0 {
				break
			}
			x.working()
			x.ops.deq++
			for i := 0; i < n; i++ {
				w := x.scratch[i].w
				if w == nil {
					// Remote grant: the CC node sent only the wire id.
					w = x.pend[x.scratch[i].id]
					if w == nil {
						panic("orthrus: grant for unknown wire transaction id")
					}
				}
				x.finish(w)
			}
			if n < len(x.scratch) {
				break
			}
		}
	}
}

// flushGroup runs the read-only submissions the admission loop grouped
// on the snapshot fast path (engine.Snapshots.Exec), completed inline: no
// planning, no chain, no CC messages — the CC plane never learns they
// existed. The group's execution time starts at its first member's
// pickup, a reading inside this step.
func (x *execThread) flushGroup() {
	if x.grouped == 0 {
		return
	}
	group := x.group[:x.grouped]
	x.logicTime += x.ses.snaps.Exec(x.id, &x.sctx, group)
	clear(group) // drop the callbacks Exec has fired
	x.grouped = 0
}

// submit plans the CC chain of the read-write transaction c owns and
// sends the first acquire. c started when this execution thread accepted
// the transaction into its window; an OLLP restart submits the same
// completion again, so latency covers the whole retry chain.
func (x *execThread) submit(c engine.Completion) {
	t := c.Txn()
	// Declared ranges decompose into stripe (gap) lock ops here, before
	// sorting: each stripe routes to its CC thread like a record lock, so
	// a range becomes interval requests grouped into the chain's per-CC
	// batches — phantom protection rides the existing message plane.
	// Re-materializing on an OLLP restart only adds duplicates SortOps
	// removes.
	engine.MaterializeRanges(x.s.cfg.DB, t)
	t.SortOps()
	w := x.s.wraps.Get().(*wrapper)
	w.c, w.owner, w.id = c, x.id, t.ID
	x.plan(w)

	switch {
	case len(w.hops) == 0:
		// No declared ops: nothing to lock, run immediately. The only
		// reference is this thread's. The open group runs first, so that
		// the group's execution time does not span this logic too.
		x.flushGroup()
		w.refs.Store(1)
		x.finish(w)
		return
	case x.pend != nil:
		// Remote CC plane: release processing happens entirely on the CC
		// node, so the only local reference is this thread's. The wire
		// id is fresh per attempt: an OLLP
		// replan must not alias the previous generation's in-flight
		// releases on the CC node.
		w.refs.Store(1)
		w.id = x.ids.Next()
		x.pend[w.id] = w
	default:
		// One reference per CC hop (dropped as each processes its
		// release) plus this thread's, dropped at the end of finish.
		w.refs.Store(int32(len(w.hops)) + 1)
	}

	x.inflight++
	x.ops.acquires++
	x.push(w.hops[0], message{kind: msgAcquire, w: w, id: w.id})
}

// plan groups the transaction's ops by owning CC thread, emitting hops in
// ascending CC id — the deadlock-avoidance order (§3.2).
func (x *execThread) plan(w *wrapper) {
	t := w.c.Txn()
	ncc := x.s.cfg.CCThreads
	if cap(x.ccBuf) < len(t.Ops) {
		//orthrus:allow(noalloc) per-thread scratch growth: reaches the largest op count seen, then stabilizes
		x.ccBuf = make([]int32, len(t.Ops))
	}
	ccs := x.ccBuf[:len(t.Ops)]
	var counts [64]int
	countSlice := counts[:]
	if ncc > len(countSlice) {
		countSlice = x.countBuf // preallocated for engines wider than 64 CC
	} else {
		countSlice = countSlice[:ncc]
	}
	for i, op := range t.Ops {
		c := x.s.ccOf(op.Table, op.Key)
		ccs[i] = int32(c)
		countSlice[c]++
	}
	for c := 0; c < ncc; c++ {
		if countSlice[c] == 0 {
			continue
		}
		n := w.addHop(c, countSlice[c])
		for i, op := range t.Ops {
			if int(ccs[i]) == c {
				w.opsByCC[n] = append(w.opsByCC[n], op)
			}
		}
		countSlice[c] = 0
	}
}

// push queues m for CC thread c.
func (x *execThread) push(c int, m message) {
	x.out[c].push(m, x.s.cfg.BatchSize, &x.ops)
}

// finish runs a fully-locked transaction's logic, then commits and
// releases (or re-plans after an OLLP estimate miss). A grant always
// means the whole chain is held: only the last CC thread of a chain
// notifies the owner (ccThread.advance).
func (x *execThread) finish(w *wrapper) {
	t := w.c.Txn()
	if x.pend != nil {
		// The chain is complete; the wire id is no longer grantable.
		delete(x.pend, w.id)
	}
	start := x.now()
	x.ctx.Begin(t)
	x.ctx.Fetch() // the grant means the footprint is held
	err := t.Logic(&x.ctx)
	d := x.now().Sub(start)
	x.stats.AddExec(d)
	x.logicTime += d

	locked := len(w.hops) > 0
	if err == nil {
		x.ctx.Commit()
		// Seal the redo record — and install versioned after-images —
		// before sending a single release: the LSN must order before any
		// dependent transaction's, and dependents can only be granted
		// after these releases. The append is a buffer write — the
		// device I/O happens on the flusher — so the window slot frees
		// immediately and CC threads never wait on a sync.
		var ack func()
		if x.wal != nil {
			// Ownership transfer: once the flusher holds the ack it may
			// fire — and recycle t — any time; the release below reads
			// only the wrapper, never t.
			ack = w.c.Defer()
		}
		engine.CommitVersions(x.wal, &x.ctx.VSet, x.stats, ack)
		x.release(w)
		x.stats.Committed++
		if locked {
			x.inflight--
		}
		if x.wal == nil {
			w.c.Finish(true)
		}
		x.s.dropRef(w)
		return
	}
	if err != txn.ErrEstimateMiss {
		panic(fmt.Sprintf("orthrus: transaction logic failed: %v", err))
	}
	// OLLP estimate miss (§3.2): roll back, release, re-plan, restart.
	// The session completion fires only on the final commit.
	x.ctx.Abort()
	x.release(w)
	if locked {
		x.inflight--
	}
	x.stats.Aborted++
	x.stats.Misses++
	if t.Replan == nil {
		panic("orthrus: estimate miss without Replan hook")
	}
	t.Replan(t)
	t.Partitions = t.Partitions[:0] // invalidate the cached partition set
	// The completion, and with it the transaction, moves to a fresh
	// wrapper; this one is recycled by its last reference holder.
	c := w.c
	x.s.dropRef(w)
	x.submit(c)
}

// release notifies every CC thread in the chain. Fire-and-forget: release
// requests are satisfied unconditionally (§3.1).
func (x *execThread) release(w *wrapper) {
	for _, c := range w.hops {
		x.ops.releases++
		x.push(c, message{kind: msgRelease, w: w, id: w.id})
	}
}

var (
	_ engine.Engine  = (*Engine)(nil)
	_ engine.Session = (*session)(nil)
)

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

	"repro/internal/engine"
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

// Clients implements engine.Engine: enough submitters to fill every
// execution thread's asynchronous window, plus one queued transaction per
// thread so a completed window slot refills without waiting on a client.
func (e *Engine) Clients() int { return e.cfg.ExecThreads * (e.cfg.Inflight + 1) }

var (
	_ engine.Engine  = (*Engine)(nil)
	_ engine.Session = (*session)(nil)
)

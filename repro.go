// Package repro is a from-scratch Go reproduction of
//
//	Kun Ren, Jose M. Faleiro, Daniel J. Abadi.
//	"Design Principles for Scaling Multi-core OLTP Under High Contention."
//	SIGMOD 2016 (arXiv:1512.06168).
//
// It provides the paper's system — ORTHRUS, a transaction manager that
// partitions concurrency-control and execution functionality across
// threads communicating by message passing, with planned data access for
// deadlock freedom — together with every baseline and substrate the
// paper's evaluation depends on:
//
//   - conventional two-phase locking with three dynamic deadlock handlers
//     (wait-die, wait-for graph, Dreadlocks);
//   - Deadlock-free ordered locking (planned access on a shared table);
//   - an H-Store-style Partitioned-store;
//   - an in-memory storage engine, YCSB-style workload generators, and a
//     five-transaction TPC-C implementation.
//
// This root package is the public facade: it re-exports the library's
// types and constructors so downstream users never import internal
// packages (which the Go toolchain would refuse anyway). The examples/
// directory exercises exactly this surface.
//
// # Quick start
//
//	db := repro.NewDB()
//	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: 1 << 20, RecordSize: 100})
//	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 12})
//	src := &repro.YCSB{Table: tbl, NumRecords: 1 << 20, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
//	res := eng.Run(src, 2*time.Second)
//	fmt.Println(res)
//
// Engines also expose a long-lived service lifecycle (Runtime/Session):
// Start the engine once, Submit transactions from any caller with
// per-transaction completion callbacks, Drain and Close. RunClosedLoop
// and RunOpenLoop are the two bundled load drivers over that lifecycle;
// examples/server shows direct submission.
//
// See README.md for the architecture, the Runtime/Session API, and how
// to regenerate the paper's figures with the experiment harness.
package repro

import (
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/dlfree"
	"repro/internal/engine/twopl"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/orthrus"
	"repro/internal/partstore"
	"repro/internal/storage"
	"repro/internal/tpcc"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// --- storage --------------------------------------------------------------

// DB is an in-memory database: a registry of tables and secondary indexes.
type DB = storage.DB

// Layout describes a table to create.
type Layout = storage.Layout

// Table is the storage access interface.
type Table = storage.Table

// SecondaryIndex maps secondary keys to sorted primary-key posting lists.
type SecondaryIndex = storage.SecondaryIndex

// NewDB returns an empty database.
func NewDB() *DB { return storage.NewDB() }

// NewSecondaryIndex returns an empty secondary index.
func NewSecondaryIndex() *SecondaryIndex { return storage.NewSecondaryIndex() }

// Fixed-width record field helpers.
var (
	GetU64 = storage.GetU64
	PutU64 = storage.PutU64
	GetI64 = storage.GetI64
	PutI64 = storage.PutI64
	AddU64 = storage.AddU64
	AddI64 = storage.AddI64
)

// --- MVCC snapshot reads ----------------------------------------------------

// SnapshotConfig tunes the MVCC snapshot-read machinery every engine
// config embeds (field Snapshot): read-only transactions (Txn.ReadOnly)
// on databases with versioned tables (Layout.Versioned) run against an
// immutable snapshot with zero locks and zero CC-plane traffic. See
// README.md "MVCC snapshot reads".
type SnapshotConfig = engine.SnapshotConfig

// Analytics generates long read-only range scans — the analytical half
// of an HTAP mix; with Snapshot set the scans take the MVCC path.
type Analytics = workload.Analytics

// --- durability -------------------------------------------------------------

// WAL is the redo-only write-ahead log every engine can commit through:
// per-execution-thread append buffers, a group-commit flusher, and
// acknowledgment in LSN order. Attach one to an engine config's Wal
// field; see internal/wal for the protocol and README.md "Durability and
// group commit".
type WAL = wal.Log

// WALDevice is the append-only byte sink a WAL writes to, rotated
// across segments so the log can be truncated below a durable
// checkpoint; see README.md "Checkpointing and parallel recovery".
type WALDevice = wal.Device

// WALMemSegments is the in-memory device used by tests, benchmarks and
// crash simulation (CrashSegments is the image a crash preserves).
type WALMemSegments = wal.MemSegments

// SyncPolicy is a WAL's durability discipline; build one with WALOff,
// WALAsync or WALGroup.
type SyncPolicy = wal.SyncPolicy

// WALStats counts the flusher's work: records vs flush batches is the
// achieved group-commit amortization.
type WALStats = wal.Stats

// WALReplayStats reports what a crash-recovery replay found and applied.
type WALReplayStats = wal.ReplayStats

// NewWAL opens a log over dev and starts its group-commit flusher. A nil
// *WAL (or one opened with WALOff) is inert and costs engines nothing.
func NewWAL(dev WALDevice, policy SyncPolicy) *WAL { return wal.NewLog(dev, policy) }

// NewWALMemSegments returns an empty in-memory log device rotating at
// segmentBytes (non-positive means the package default, 1 MiB).
func NewWALMemSegments(segmentBytes int) *WALMemSegments { return wal.NewMemSegments(segmentBytes) }

// OpenWALFileSegments opens a directory of fsync'd, rotated segment
// files as a WAL device.
func OpenWALFileSegments(dir string, segmentBytes int) (*wal.FileSegments, error) {
	return wal.OpenFileSegments(dir, segmentBytes)
}

// LoadWALFileSegments reads the segment images under dir in sequence
// order — the recovery input matching OpenWALFileSegments.
func LoadWALFileSegments(dir string) ([][]byte, error) { return wal.LoadFileSegments(dir) }

// WALOff disables durability (the paper's instant acknowledgment).
func WALOff() SyncPolicy { return wal.Off() }

// WALAsync appends and flushes in the background but acknowledges at
// pre-commit (synchronous_commit=off semantics).
func WALAsync() SyncPolicy { return wal.Async() }

// WALGroup acknowledges after the redo record is synced. With interval
// zero — WALGroup(0, 0), the default — group commit is self-clocked: no
// fill window, each flush pass carries what arrived during the previous
// one, and k is unused. A positive interval holds every group open until
// k commits are pending (zero k means 64) or interval has passed: fewer,
// larger syncs for up to interval of added commit latency.
func WALGroup(k int, interval time.Duration) SyncPolicy { return wal.Group(k, interval) }

// ReplayWALSegments rebuilds committed state from a (possibly torn) log
// image — the log's segments in order — onto db, which must hold the
// run's initial contents (or, with after > 0, a checkpoint image
// covering every LSN ≤ after): it applies the longest contiguous LSN
// prefix above after — exactly the set of transactions whose
// acknowledgment could have fired before the crash — with workers
// goroutines applying disjoint (table, key) partitions.
func ReplayWALSegments(segments [][]byte, after uint64, workers int, db *DB) WALReplayStats {
	return wal.Replay(segments, after, workers, db)
}

// --- checkpoints and recovery ----------------------------------------------

// --- checkpoints and recovery ----------------------------------------------

// CheckpointStore persists fuzzy checkpoint images; Load returns the
// newest checkpoint that validates, falling back past a torn or corrupt
// one to its predecessor.
type CheckpointStore = wal.CheckpointStore

// CheckpointManifest is a committed checkpoint's metadata: the StartLSN/
// TailLSN window of the fuzzy walk and the per-table page CRC folds.
type CheckpointManifest = wal.Manifest

// NewMemCheckpointStore returns an in-memory checkpoint store (tests,
// experiments); it offers crash-simulation helpers for torn manifests.
func NewMemCheckpointStore() *wal.MemCheckpointStore { return wal.NewMemCheckpointStore() }

// OpenDirCheckpointStore opens a directory-backed checkpoint store whose
// commit point is an fsync'd manifest rename.
func OpenDirCheckpointStore(dir string) (*wal.DirCheckpointStore, error) {
	return wal.OpenDirCheckpointStore(dir)
}

// CheckpointConfig configures the background fuzzy checkpointer every
// engine config embeds (field Checkpoint); a nil Store disables it.
type CheckpointConfig = engine.CheckpointConfig

// CheckpointStats counts a session's checkpointer work.
type CheckpointStats = engine.CheckpointStats

// CheckpointedSession is a Session running a checkpointer: Checkpoint()
// forces one synchronously, CheckpointStats() reports progress.
type CheckpointedSession = engine.CheckpointedSession

// ForceCheckpoint runs one synchronous checkpoint on a session started
// from a config with Checkpoint.Store set; it errors on sessions
// without a checkpointer.
func ForceCheckpoint(ses Session) error { return engine.ForceCheckpoint(ses) }

// RecoverStats reports one recovery: the checkpoint restored and the
// log-tail replay on top.
type RecoverStats = wal.RecoverStats

// RecoverWAL rebuilds committed state onto db from the newest valid
// checkpoint in store (nil means none) plus the committed prefix of the
// segmented log tail, using up to workers goroutines (<=0 means
// GOMAXPROCS) for both the page restore and the partitioned replay.
func RecoverWAL(store CheckpointStore, segments [][]byte, db *DB, workers int) (RecoverStats, error) {
	return wal.Recover(store, segments, db, workers)
}

// --- transactions -----------------------------------------------------------

// Txn is one transaction: a declared access set plus a logic closure.
type Txn = txn.Txn

// Op names one record in a transaction's declared access set.
type Op = txn.Op

// RangeOp names one key interval in a transaction's declared access set:
// a range the transaction scans (Read) or may insert into (Write).
// Engines protect declared ranges against phantoms with stripe (gap)
// locks; see README.md "Range scans and phantom protection".
type RangeOp = txn.RangeOp

// Stripe (gap) lock geometry: one stripe lock covers StripeSize adjacent
// record keys; StripeKey maps a record key to its covering stripe lock
// key. Record keys must stay below 1<<63 (bit 63 marks stripe keys).
const (
	StripeShift = txn.StripeShift
	StripeSize  = txn.StripeSize
)

// StripeKey returns the stripe lock key covering a record key.
func StripeKey(key uint64) uint64 { return txn.StripeKey(key) }

// Ctx is the engine-supplied access context transaction logic runs against.
type Ctx = txn.Ctx

// Mode is a record access mode.
type Mode = txn.Mode

// Access modes.
const (
	Read  = txn.Read
	Write = txn.Write
)

// PartitionFunc maps records to partitions (ORTHRUS CC threads,
// Partitioned-store partitions).
type PartitionFunc = txn.PartitionFunc

// HashPartitioner spreads keys round-robin over n partitions.
func HashPartitioner(n int) PartitionFunc { return txn.HashPartitioner(n) }

// ErrAborted is returned through Ctx when a deadlock handler victimizes
// the transaction; ErrEstimateMiss when an OLLP access estimate was wrong.
var (
	ErrAborted      = txn.ErrAborted
	ErrEstimateMiss = txn.ErrEstimateMiss
)

// --- engines ----------------------------------------------------------------

// Engine runs workloads for a fixed duration and reports metrics. All six
// systems (ORTHRUS and its variants, 2PL with each handler, Deadlock-free,
// Partitioned-store) implement it; Run is the shared closed-loop driver
// over the Runtime lifecycle.
type Engine = engine.Engine

// Runtime is the service-style lifecycle every engine implements: Start
// the engine's threads once, then Submit transactions through the
// returned Session.
type Runtime = engine.Runtime

// Session accepts transactions for a started Runtime: Submit with a
// per-transaction completion callback, Drain, Close.
type Session = engine.Session

// System is the full engine surface: Engine plus Runtime. Every
// constructor below returns an implementation.
type System = engine.System

// RunClosedLoop drives a Runtime with self-generated closed-loop load —
// the generic implementation behind Engine.Run.
func RunClosedLoop(rt Runtime, src Source, duration time.Duration) Result {
	return engine.RunClosedLoop(rt, src, duration)
}

// RunOpenLoop drives a Runtime with Poisson arrivals at a fixed rate and
// reports commit-latency percentiles measured from each transaction's
// scheduled arrival (latency under offered, not self-regulated, load).
func RunOpenLoop(rt Runtime, src Source, rate float64, duration time.Duration) OpenLoopResult {
	return engine.RunOpenLoop(rt, src, rate, duration)
}

// OpenLoopResult is an open-loop run's outcome: engine totals plus the
// scheduled-arrival-to-commit latency histogram.
type OpenLoopResult = engine.OpenLoopResult

// Result is a timed run's outcome; Result.Throughput() is committed
// transactions per second.
type Result = metrics.Result

// Totals is the aggregate counter/time-breakdown block inside a Result
// (execute/lock/wait plus the durability flush-stall Log component).
type Totals = metrics.Totals

// Histogram is the log₂-bucketed latency histogram used throughout.
type Histogram = metrics.Histogram

// OrthrusConfig configures the paper's system (see internal/orthrus docs).
type OrthrusConfig = orthrus.Config

// Orthrus is the paper's engine; beyond Engine/Runtime it reports
// message-plane statistics (Messages).
type Orthrus = orthrus.Engine

// MessageStats counts ORTHRUS message-plane traffic (the quantity §3.3's
// forwarding optimization reduces from 2·Ncc to Ncc+1 per acquisition).
type MessageStats = orthrus.MessageStats

// CCStats is one CC thread's share of the message plane (per-thread load
// breakdown inside MessageStats.PerCC).
type CCStats = orthrus.CCStats

// NewOrthrus builds an ORTHRUS engine.
func NewOrthrus(cfg OrthrusConfig) *Orthrus { return orthrus.New(cfg) }

// AutotuneOrthrus probes candidate CC/exec splits for a total thread
// budget against the given workload and returns the best configuration
// (the paper's §4.2 allocation trade-off, resolved empirically; see
// internal/orthrus Autotune docs for caveats).
func AutotuneOrthrus(db *DB, totalThreads int, pf PartitionFunc, src Source, probe time.Duration) OrthrusConfig {
	return orthrus.Autotune(db, totalThreads, pf, src, probe)
}

// TwoPLConfig configures conventional dynamic two-phase locking.
type TwoPLConfig = twopl.Config

// TwoPL is the conventional dynamic-2PL engine.
type TwoPL = twopl.Engine

// NewTwoPL builds a 2PL engine with the given deadlock handler.
func NewTwoPL(cfg TwoPLConfig) *TwoPL { return twopl.New(cfg) }

// DeadlockFreeConfig configures ordered-acquisition locking.
type DeadlockFreeConfig = dlfree.Config

// DeadlockFree is the ordered-acquisition locking engine.
type DeadlockFree = dlfree.Engine

// NewDeadlockFree builds the Deadlock-free locking engine.
func NewDeadlockFree(cfg DeadlockFreeConfig) *DeadlockFree { return dlfree.New(cfg) }

// PartitionedStoreConfig configures the H-Store-style baseline.
type PartitionedStoreConfig = partstore.Config

// PartitionedStore is the H-Store-style baseline engine.
type PartitionedStore = partstore.Engine

// NewPartitionedStore builds the Partitioned-store engine.
func NewPartitionedStore(cfg PartitionedStoreConfig) *PartitionedStore { return partstore.New(cfg) }

// Handler is a pluggable 2PL deadlock policy.
type Handler = lock.Handler

// WaitDie returns the timestamp-based wait-die policy.
func WaitDie() Handler { return deadlock.WaitDie{} }

// WaitForGraph returns the partitioned waits-for-graph policy for nthreads
// worker threads.
func WaitForGraph(nthreads int) Handler { return deadlock.NewWaitForGraph(nthreads) }

// Dreadlocks returns the digest-based policy for nthreads worker threads.
func Dreadlocks(nthreads int) Handler { return deadlock.NewDreadlocks(nthreads) }

// NoWait returns the abort-on-any-conflict policy (extension beyond the
// paper's lineup; see internal/deadlock).
func NoWait() Handler { return deadlock.NoWait{} }

// WoundWait returns the wound-wait policy for nthreads worker threads
// (extension beyond the paper's lineup; older requesters abort younger
// holders instead of waiting).
func WoundWait(nthreads int) Handler { return deadlock.NewWoundWait(nthreads) }

// --- workloads ---------------------------------------------------------------

// Source produces transactions for worker threads.
type Source = workload.Source

// YCSB is the configurable YCSB-style generator (read-only or RMW,
// hot/cold contention, partition-locality constraints).
type YCSB = workload.YCSB

// Transfer is the balance-conservation workload used for isolation
// testing.
type Transfer = workload.Transfer

// Zipf draws keys from a Zipfian distribution.
type Zipf = workload.Zipf

// --- TPC-C --------------------------------------------------------------------

// TPCCConfig sizes a TPC-C database.
type TPCCConfig = tpcc.Config

// TPCCSchema is a loaded TPC-C database (tables, keys, generators).
type TPCCSchema = tpcc.Schema

// TPCCMix is the weighted TPC-C transaction source (paper default:
// 50% NewOrder / 50% Payment).
type TPCCMix = tpcc.Mix

// LoadTPCC builds and populates a TPC-C database.
func LoadTPCC(cfg TPCCConfig) (*TPCCSchema, error) { return tpcc.Load(cfg) }

// Mixed generates per-operation read/update mixes (the standard YCSB
// A/B/C shapes); see the preset constructors below.
type Mixed = workload.Mixed

// YCSB preset mixes: A (50% reads), B (95% reads), C (read-only).
var (
	YCSBMixA = workload.YCSBA
	YCSBMixB = workload.YCSBB
	YCSBMixC = workload.YCSBC
)

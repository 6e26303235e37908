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
// This root package is the public facade, and it holds exactly the names
// some program under examples/ uses (TestFacadeIsWhatExamplesUse fails on
// any other): the database, hand-built transactions, the engines and
// their drivers, and the YCSB and TPC-C generators. The WAL, checkpoint,
// recovery, snapshot and statistics APIs live in the internal packages,
// which this module's own commands and tests import directly.
//
// # Quick start
//
//	db := repro.NewDB()
//	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: 1 << 20, RecordSize: 100})
//	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 12})
//	src := &repro.YCSB{Table: tbl, NumRecords: 1 << 20, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
//	res := repro.RunClosedLoop(eng, src, 2*time.Second)
//	fmt.Println(res)
//
// Every Engine has one lifecycle: Start its threads once, Submit
// transactions from any caller with per-transaction completion
// callbacks, Drain and Close. RunClosedLoop and RunOpenLoop are the two
// bundled load drivers over it; examples/server shows direct submission.
//
// See README.md for the architecture, the Engine/Session lifecycle, and
// how to regenerate the paper's figures with the experiment harness.
package repro

import (
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/tpcc"
	"repro/internal/txn"
	"repro/internal/workload"
)

// --- storage --------------------------------------------------------------

// DB is an in-memory database: a registry of tables.
type DB = storage.DB

// Layout describes a table to create.
type Layout = storage.Layout

// NewDB returns an empty database.
func NewDB() *DB { return storage.NewDB() }

// Fixed-width signed record field helpers.
var (
	GetI64 = storage.GetI64
	PutI64 = storage.PutI64
	AddI64 = storage.AddI64
)

// --- transactions -----------------------------------------------------------

// Txn is one transaction: a declared access set plus a logic closure.
type Txn = txn.Txn

// Op names one record in a transaction's declared access set.
type Op = txn.Op

// Ctx is the engine-supplied access context transaction logic runs against.
type Ctx = txn.Ctx

// Write is the exclusive access mode of a declared Op.
const Write = txn.Write

// --- engines ----------------------------------------------------------------

// Engine is the lifecycle every engine implements — ORTHRUS, and the
// locking engine behind 2PL with each handler, Deadlock-free and
// Partitioned-store: Start its threads once, Submit transactions through
// the returned Session, Drain and Close.
type Engine = engine.Engine

// RunClosedLoop drives an Engine with self-generated closed-loop load for
// roughly the given duration and reports its throughput and time
// breakdown.
func RunClosedLoop(e Engine, src workload.Source, duration time.Duration) metrics.Result {
	return engine.RunClosedLoop(e, src, duration)
}

// RunOpenLoop drives an Engine with Poisson arrivals at a fixed rate and
// reports commit-latency percentiles measured from each transaction's
// scheduled arrival (latency under offered, not self-regulated, load).
func RunOpenLoop(e Engine, src workload.Source, rate float64, duration time.Duration) engine.OpenLoopResult {
	return engine.RunOpenLoop(e, src, rate, duration)
}

// Histogram is the log₂-bucketed latency histogram used throughout.
type Histogram = metrics.Histogram

// OrthrusConfig configures the paper's system (see internal/orthrus docs).
type OrthrusConfig = orthrus.Config

// NewOrthrus builds an ORTHRUS engine.
func NewOrthrus(cfg OrthrusConfig) *orthrus.Engine { return orthrus.New(cfg) }

// LockingConfig configures the conventional baselines, which share one
// locking engine and differ only in their lock footprint: Handler set is
// 2PL, Partitions set is Partitioned-store, neither is Deadlock-free
// locking (see internal/engine/locking).
type LockingConfig = locking.Config

// NewTwoPL builds conventional dynamic two-phase locking with
// cfg.Handler as its deadlock policy.
func NewTwoPL(cfg LockingConfig) *locking.Engine {
	if cfg.Handler == nil {
		panic("repro: NewTwoPL needs a Handler")
	}
	return locking.New(cfg)
}

// NewDeadlockFree builds Deadlock-free ordered locking; cfg sets neither
// Handler nor Partitions.
func NewDeadlockFree(cfg LockingConfig) *locking.Engine {
	if cfg.Handler != nil || cfg.Partitions != 0 {
		panic("repro: NewDeadlockFree takes neither a Handler nor Partitions")
	}
	return locking.New(cfg)
}

// NewPartitionedStore builds the H-Store-style Partitioned-store over
// cfg.Partitions partitions.
func NewPartitionedStore(cfg LockingConfig) *locking.Engine {
	if cfg.Partitions <= 0 {
		panic("repro: NewPartitionedStore needs positive Partitions")
	}
	return locking.New(cfg)
}

// WaitDie returns the timestamp-based wait-die policy.
func WaitDie() lock.Handler { return deadlock.WaitDie{} }

// WaitForGraph returns the partitioned waits-for-graph policy for nthreads
// worker threads.
func WaitForGraph(nthreads int) lock.Handler { return deadlock.NewWaitForGraph(nthreads) }

// Dreadlocks returns the digest-based policy for nthreads worker threads.
func Dreadlocks(nthreads int) lock.Handler { return deadlock.NewDreadlocks(nthreads) }

// --- workloads ---------------------------------------------------------------

// YCSB is the configurable YCSB-style generator (read-only or RMW,
// hot/cold contention, partition-locality constraints).
type YCSB = workload.YCSB

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

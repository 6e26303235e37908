package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Table shape shared by every workload: 1<<18 × 100 B ≈ 26 MB, larger
// than this box's L2, with rows far above the 32 outstanding clients so
// only the workloads that ask for contention (the hot set) get it.
const (
	numRecords = 1 << 18
	recordSize = 100
	opsPerTxn  = 10
	hotRecords = 16
	hotOps     = 2

	ccThreads   = 2 // two, so the §3.3 forward path (CC→CC) runs
	execThreads = 2
)

// spec is one benchmark workload. The open-phase rate is a frozen
// constant of roughly a quarter of the capacity measured on the 2-core
// reference box, so latency is measured well below the knee.
type spec struct {
	name string
	why  string
	rate float64 // open-phase Poisson arrival rate, txn/s
	// warmup is the number of closed-loop transactions discarded before
	// measuring (≈ half a second of capacity). A count, not a duration,
	// so the heap measured right after it holds the same work every run.
	warmup int
	// levelOff is a further number of discarded transactions, run after
	// the heap is measured, for background work to complete a few cycles
	// before anything is timed.
	levelOff int

	hot         bool // 2 of 10 ops on a 16-record hot set
	readOnlyPct int  // share of transactions served from MVCC snapshots
	versioned   bool // Layout.Versioned table
	durable     bool // WAL group commit + fuzzy checkpointer
	tcp         bool // cc and exec nodes split over a loopback socket
}

var specs = []spec{
	{name: "hot_rmw", rate: 50000, warmup: 80000, hot: true,
		why: "Waiters queue in the CC lock table and are granted on release; contention work shows here."},
	{name: "uniform_rmw", rate: 50000, warmup: 100000,
		why: "No lock waits: plan, ring hops, wake-ups and storage dominate; control where contention work predicts no change."},
	{name: "durable_rmw", rate: 10000, warmup: 15000, levelOff: 250000, durable: true,
		why: "WAL append, group flush, ack heap and fuzzy checkpointer do most of the work; MemSegments, so CPU cost only."},
	{name: "read_mostly", rate: 50000, warmup: 150000, hot: true, readOnlyPct: 90, versioned: true,
		why: "90% snapshot reads walk version chains beside hot writers installing versions; exposes a read/write trade."},
	{name: "tcp_rmw", rate: 4000, warmup: 8000, tcp: true,
		why: "cc and exec nodes over loopback tcp: codec, peer writer/reader and the kernel dominate; in-proc runs bypass it."},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// source returns the workload's transaction generator.
func (sp *spec) source(tbl int) *workload.YCSB {
	src := &workload.YCSB{Table: tbl, NumRecords: numRecords, OpsPerTxn: opsPerTxn, ReadOnlyPct: sp.readOnlyPct}
	if sp.hot {
		src.HotRecords, src.HotOps = hotRecords, hotOps
	}
	if err := src.Validate(); err != nil {
		panic(err)
	}
	return src
}

// loadDB creates the table and loads every record. The first word is the
// RMW counter the lost-update check sums (it starts at zero); the rest is
// a key-derived payload, so loading touches every page and the recovery
// check compares real bytes.
func loadDB(versioned bool) (*storage.DB, int) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "ycsb", NumRecords: numRecords, RecordSize: recordSize, Versioned: versioned})
	t := db.Table(tbl)
	var rec [recordSize]byte
	for k := uint64(0); k < numRecords; k++ {
		for i := 8; i < recordSize; i++ {
			rec[i] = byte(k>>uint(i&7)) ^ byte(i)
		}
		if err := t.Insert(k, rec[:]); err != nil {
			panic(err)
		}
	}
	return db, tbl
}

// system is one set-up engine with a live session.
type system struct {
	sp  *spec
	db  *storage.DB
	tbl int
	src *workload.YCSB
	eng *orthrus.Engine
	ses engine.Session

	// durable workloads
	log   *wal.Log
	dev   *wal.MemSegments
	store *wal.MemCheckpointStore

	// tcp workloads: the cc node lives in this process too (the
	// runTCPPair shape); its Close returns once the exec node has closed.
	ccEng  *orthrus.Engine
	ccDone chan struct{}
}

// setup creates and loads the database, builds the engine and starts its
// session — everything a user pays before the first transaction.
// ckptInterval paces the fuzzy checkpointer on durable workloads.
func setup(sp *spec, ckptInterval time.Duration) (*system, error) {
	sys := &system{sp: sp}
	sys.db, sys.tbl = loadDB(sp.versioned)
	sys.src = sp.source(sys.tbl)
	cfg := orthrus.Config{DB: sys.db, CCThreads: ccThreads, ExecThreads: execThreads}
	if sp.durable {
		// Flush policy, stated and fixed: group commit with the package
		// defaults (64 commits or 200µs), default 1 MiB segments.
		sys.dev = wal.NewMemSegments(0)
		sys.log = wal.NewLog(sys.dev, wal.Group(0, 0))
		sys.store = wal.NewMemCheckpointStore()
		cfg.Wal = sys.log
		cfg.Checkpoint = engine.CheckpointConfig{Store: sys.store, Interval: ckptInterval}
	}
	if sp.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tcp listener: %w", err)
		}
		// The cc node takes lock requests only: it needs the schema, not
		// the rows.
		ccDB := storage.NewDB()
		ccDB.Create(storage.Layout{Name: "ycsb", NumRecords: numRecords, RecordSize: recordSize})
		ccCfg := orthrus.Config{DB: ccDB, CCThreads: ccThreads, ExecThreads: execThreads,
			Transport: orthrus.TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}}
		cfg.Transport = orthrus.TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}
		sys.ccEng = orthrus.New(ccCfg)
		sys.ccDone = make(chan struct{})
		go func() {
			defer close(sys.ccDone)
			sys.ccEng.Start().Close() // blocks on the goodbye barrier until the exec node closes
		}()
	}
	sys.eng = orthrus.New(cfg)
	sys.ses = sys.eng.Start()
	return sys, nil
}

// sessionStats is what a session leaves behind.
type sessionStats struct {
	totals  metrics.Totals
	msgs    orthrus.MessageStats // both nodes merged on tcp
	execNet orthrus.NetStats
	ccNet   orthrus.NetStats
	ckpt    engine.CheckpointStats
	wal     wal.Stats
	elapsed time.Duration
	// ccReturned reports that the cc node's Close came back (tcp only).
	ccReturned bool
}

// close drains and stops the session (and the cc node, and the log) and
// collects every counter the public API returns at Close.
func (sys *system) close() sessionStats {
	var c sessionStats
	res := sys.ses.Close()
	c.totals = res.Totals
	c.elapsed = res.Duration
	if cs, ok := sys.ses.(engine.CheckpointedSession); ok {
		c.ckpt = cs.CheckpointStats()
	}
	c.msgs = sys.eng.Messages()
	c.execNet = c.msgs.Net
	if sys.ccEng != nil {
		select {
		case <-sys.ccDone:
			c.ccReturned = true
			cc := sys.ccEng.Messages()
			c.ccNet = cc.Net
			// Send-side counters live on the exec node, handled-side ones
			// on the cc node; each is zero on the other, so sums merge.
			c.msgs.Acquires += cc.Acquires
			c.msgs.Forwards += cc.Forwards
			c.msgs.Grants += cc.Grants
			c.msgs.Releases += cc.Releases
			c.msgs.EnqueueOps += cc.EnqueueOps
			c.msgs.DequeueOps += cc.DequeueOps
			c.msgs.PerCC = cc.PerCC
		case <-time.After(30 * time.Second):
		}
	}
	if sys.log != nil {
		if err := sys.log.Close(); err != nil {
			panic(err)
		}
		c.wal = sys.log.Stats()
	}
	return c
}

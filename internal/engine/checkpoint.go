package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Fuzzy checkpointer.
//
// The checkpointer walks every table and streams a checkpoint image to a
// wal.CheckpointStore without ever quiescing writers. The image is fuzzy
// — different records are copied at different moments — but each record
// individually is a committed state from the LSN window the manifest
// records:
//
//   - StartLSN is the last assigned LSN when the walk begins. Before
//     copying anything the checkpointer forces the WAL's durable
//     frontier up to StartLSN, so even the snapshot copy path — which
//     reads at the durable frontier, a frontier that lags assigned LSNs
//     under group commit — observes at least the state as of StartLSN.
//     Every record copied thereafter reflects at least everything
//     committed to it by StartLSN, so replaying the log from StartLSN+1
//     cannot miss an update the image lacks.
//   - TailLSN is the last assigned LSN when the walk ends. No copied
//     record can reflect a commit past TailLSN, and the checkpointer
//     waits for the WAL's durable frontier to reach TailLSN before
//     committing the manifest — so any LSN the image may already embody
//     is itself on the device, and replaying it again over the image
//     just re-applies the same full after-image (redo records carry no
//     deltas, so re-application is idempotent).
//
// Per-record committedness is what requires care, and it is obtained per
// table class:
//
//   - Versioned tables: chunks of keys are read through a ReadOnly
//     transaction submitted to the engine session — the PR 6 snapshot
//     path — so each chunk is a committed snapshot at some LSN in
//     [StartLSN, durable frontier], lock-free.
//   - Unversioned fixed tables and ordered growable tables: chunks are
//     read through ordinary transactions with declared per-key Read ops;
//     the engine's record locks guarantee each value read is a committed
//     image (no writer holds the record mid-transaction). Ordered
//     growable tables are enumerated first (storage.GrowTable.AppendKeys)
//     so the chunk transactions declare exact access sets; keys inserted
//     during the walk are simply absent from the image and covered by
//     the replayed tail.
//   - Unordered growable tables (HISTORY — insert-only by construction):
//     latched per-shard copy-out (storage.GrowTable.CopyOut). Inserts
//     publish complete records under the shard latch, and nothing
//     updates them afterwards, so no engine transaction is needed.
//
// Truncation rule: the store retains the two newest committed
// checkpoints, and after committing checkpoint N the log is truncated
// below checkpoint N−1's StartLSN — never below N's own. If N's manifest
// turns out torn or corrupt at recovery, the store falls back to N−1,
// whose full tail (everything above N−1's StartLSN) is still intact.

// Checkpointer defaults.
const (
	DefaultCheckpointInterval = time.Second
	DefaultChunkRecords       = 256
)

// ErrCheckpointerStopped is returned by Checkpoint after Stop.
var ErrCheckpointerStopped = errors.New("engine: checkpointer stopped")

// CheckpointConfig configures the fuzzy checkpointer. A nil Store
// disables checkpointing entirely (the session is returned unwrapped).
type CheckpointConfig struct {
	// Store receives checkpoint images. Nil disables the checkpointer.
	Store wal.CheckpointStore
	// Interval between automatic checkpoints (0 → DefaultCheckpointInterval).
	Interval time.Duration
	// ChunkRecords bounds how many records one chunk transaction reads
	// and one checkpoint page holds (0 → DefaultChunkRecords). Smaller
	// chunks hold engine locks for shorter windows; larger chunks
	// amortize submission overhead.
	ChunkRecords int
}

// Validate panics on nonsensical knob values (negative durations or
// chunk sizes); zero values mean defaults.
func (c CheckpointConfig) Validate() {
	if c.Interval < 0 {
		panic(fmt.Sprintf("engine: CheckpointConfig.Interval %v is negative", c.Interval))
	}
	if c.ChunkRecords < 0 {
		panic(fmt.Sprintf("engine: CheckpointConfig.ChunkRecords %d is negative", c.ChunkRecords))
	}
}

// CheckpointStats counts the checkpointer's work.
type CheckpointStats struct {
	Checkpoints       uint64 // manifests committed
	Failed            uint64 // checkpoint attempts that errored
	Pages             uint64 // pages written
	Records           uint64 // records imaged
	Bytes             uint64 // page bytes written
	ChunkRetries      uint64 // chunk transactions resubmitted after give-up
	TruncatedSegments uint64 // log segments dropped by the truncation rule
	LastStartLSN      uint64 // newest committed manifest's StartLSN
	LastTailLSN       uint64 // newest committed manifest's TailLSN
}

// Checkpointer runs fuzzy checkpoints against a session, either on a
// ticker (StartCheckpointer) or on demand (Checkpoint). One checkpoint
// runs at a time; Checkpoint serializes callers.
type Checkpointer struct {
	ses Session
	db  *storage.DB
	log *wal.Log
	cfg CheckpointConfig

	// mu serializes checkpoints and guards stopped/prevStart.
	mu        sync.Mutex
	stopped   bool
	hasPrev   bool
	prevStart uint64

	// Reused across chunks and checkpoints: one in-flight chunk
	// transaction, its completion channel, the page builder, and the key
	// enumeration buffer. All cold-path state — the hot Submit→ack path
	// of foreground transactions never touches any of it.
	chunk  *chunkTxn
	donech chan bool
	doneFn func(bool)
	page   wal.PageBuilder
	keyBuf []uint64

	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}

	stCheckpoints, stFailed, stPages, stRecords atomic.Uint64
	stBytes, stChunkRetries, stTruncated        atomic.Uint64
	stLastStart, stLastTail                     atomic.Uint64
}

// StartCheckpointer builds a checkpointer over ses and starts its ticker
// goroutine. The session must outlive the checkpointer: Stop (or the
// WithCheckpointer wrapper's Close, which calls it) must complete before
// the session closes, because chunk transactions go through ses.Submit.
// Checkpointing requires an enabled WAL — a checkpoint is only usable
// together with the log tail that completes it.
func StartCheckpointer(ses Session, db *storage.DB, log *wal.Log, cfg CheckpointConfig) *Checkpointer {
	cfg.Validate()
	if cfg.Store == nil {
		panic("engine: StartCheckpointer requires a CheckpointConfig.Store")
	}
	if !log.Enabled() {
		panic("engine: checkpointing requires an enabled WAL")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultCheckpointInterval
	}
	if cfg.ChunkRecords == 0 {
		cfg.ChunkRecords = DefaultChunkRecords
	}
	cp := &Checkpointer{
		ses:    ses,
		db:     db,
		log:    log,
		cfg:    cfg,
		donech: make(chan bool, 1),
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
	}
	cp.doneFn = func(committed bool) { cp.donech <- committed }
	cp.chunk = &chunkTxn{cp: cp}
	cp.chunk.Logic = cp.chunk.logic
	go cp.loop()
	return cp
}

// loop is the background ticker goroutine.
func (cp *Checkpointer) loop() {
	defer close(cp.donec)
	tick := time.NewTicker(cp.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-cp.stopc:
			return
		case <-tick.C:
			if err := cp.Checkpoint(); err != nil && err != ErrCheckpointerStopped {
				cp.stFailed.Add(1)
			}
		}
	}
}

// Stop halts the ticker and waits for any in-flight checkpoint to
// finish. Subsequent Checkpoint calls return ErrCheckpointerStopped.
// Stop must be called before the underlying session closes.
func (cp *Checkpointer) Stop() {
	cp.stopOnce.Do(func() {
		close(cp.stopc)
		<-cp.donec
		cp.mu.Lock()
		cp.stopped = true
		cp.mu.Unlock()
	})
}

// Stats snapshots the checkpointer's counters.
func (cp *Checkpointer) Stats() CheckpointStats {
	return CheckpointStats{
		Checkpoints:       cp.stCheckpoints.Load(),
		Failed:            cp.stFailed.Load(),
		Pages:             cp.stPages.Load(),
		Records:           cp.stRecords.Load(),
		Bytes:             cp.stBytes.Load(),
		ChunkRetries:      cp.stChunkRetries.Load(),
		TruncatedSegments: cp.stTruncated.Load(),
		LastStartLSN:      cp.stLastStart.Load(),
		LastTailLSN:       cp.stLastTail.Load(),
	}
}

// Checkpoint runs one complete fuzzy checkpoint: walk every table, wait
// for the tail to be durable, commit the manifest, then apply the
// truncation rule. Serialized with the ticker's own checkpoints.
func (cp *Checkpointer) Checkpoint() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.stopped {
		return ErrCheckpointerStopped
	}
	w, err := cp.cfg.Store.Begin()
	if err != nil {
		return err
	}
	startLSN := cp.log.LastLSN()
	// Versioned-table chunks are imaged through snapshot reads at the
	// WAL's durable frontier, which lags assigned LSNs under group commit.
	// Force the frontier up to startLSN before the walk so every copy
	// path reflects state at least as new as StartLSN — a chunk
	// snapshotted below StartLSN would omit durable, acknowledged updates
	// that replay (which starts past StartLSN) never re-applies.
	cp.log.WaitDurable(startLSN)
	manifest := &wal.Manifest{StartLSN: startLSN}
	for tid := 0; tid < cp.db.NumTables(); tid++ {
		img, err := cp.copyTable(w, tid)
		if err != nil {
			w.Abort()
			return err
		}
		manifest.Tables = append(manifest.Tables, img)
	}
	manifest.TailLSN = cp.log.LastLSN()
	// Durability barrier: every LSN the image may embody must hit the
	// device before the manifest can authorize dropping log history.
	cp.log.WaitDurable(manifest.TailLSN)
	if err := w.Commit(manifest); err != nil {
		return err
	}
	cp.stCheckpoints.Add(1)
	cp.stLastStart.Store(startLSN)
	cp.stLastTail.Store(manifest.TailLSN)
	// Truncation rule: drop segments only below the PREVIOUS committed
	// checkpoint's StartLSN, so a torn newest manifest still leaves the
	// previous checkpoint plus its full tail recoverable.
	if cp.hasPrev {
		cp.stTruncated.Add(uint64(cp.log.Truncate(cp.prevStart)))
	}
	cp.hasPrev, cp.prevStart = true, startLSN
	return nil
}

// copyTable images one table, dispatching on its layout; see the package
// comment for why each class uses the walk it does.
func (cp *Checkpointer) copyTable(w wal.CheckpointWriter, tid int) (wal.TableImage, error) {
	switch t := cp.db.Table(tid).(type) {
	case *storage.VersionedTable:
		cp.denseKeys(t.Len())
		return cp.copyChunks(w, tid, cp.keyBuf, true)
	case *storage.GrowTable:
		if t.ScanProtected() {
			cp.keyBuf = t.AppendKeys(cp.keyBuf[:0])
			return cp.copyChunks(w, tid, cp.keyBuf, false)
		}
		return cp.copyLatched(w, tid, t)
	case *storage.FixedTable:
		cp.denseKeys(t.Len())
		return cp.copyChunks(w, tid, cp.keyBuf, false)
	default:
		return wal.TableImage{}, fmt.Errorf("engine: cannot checkpoint table %q of unknown layout", cp.db.Table(tid).Name())
	}
}

// denseKeys fills the key buffer with 0..n-1.
func (cp *Checkpointer) denseKeys(n uint64) {
	cp.keyBuf = cp.keyBuf[:0]
	for k := uint64(0); k < n; k++ {
		cp.keyBuf = append(cp.keyBuf, k)
	}
}

// copyChunks images keys of table tid through chunk transactions,
// sealing one page per chunk. snapshot selects the ReadOnly snapshot
// path (versioned tables).
func (cp *Checkpointer) copyChunks(w wal.CheckpointWriter, tid int, keys []uint64, snapshot bool) (wal.TableImage, error) {
	img := wal.TableImage{Table: tid}
	for len(keys) > 0 {
		n := cp.cfg.ChunkRecords
		if n > len(keys) {
			n = len(keys)
		}
		cp.runChunk(tid, keys[:n], snapshot)
		keys = keys[n:]
		if err := cp.sealPage(w, &img); err != nil {
			return img, err
		}
	}
	return img, nil
}

// runChunk submits one chunk transaction and waits for it, resubmitting
// if the engine gives up (2PL past MaxRetries). The chunk's Logic resets
// the page builder on entry, so engine-level retries and resubmissions
// are idempotent.
func (cp *Checkpointer) runChunk(tid int, keys []uint64, snapshot bool) {
	t := cp.chunk
	for {
		t.reset(tid, keys, snapshot)
		cp.ses.Submit(&t.Txn, cp.doneFn)
		if <-cp.donech {
			return
		}
		cp.stChunkRetries.Add(1)
	}
}

// copyLatched images an unordered (insert-only) growable table by
// latched per-shard copy-out, splitting the stream into pages of at most
// ChunkRecords records.
func (cp *Checkpointer) copyLatched(w wal.CheckpointWriter, tid int, t *storage.GrowTable) (wal.TableImage, error) {
	img := wal.TableImage{Table: tid}
	cp.page.Reset(tid)
	var err error
	t.CopyOut(func(key uint64, rec []byte) {
		if err != nil {
			return
		}
		if cp.page.Count() >= cp.cfg.ChunkRecords {
			err = cp.sealPage(w, &img)
			if err != nil {
				return
			}
			cp.page.Reset(tid)
		}
		cp.page.Add(key, rec)
	})
	if err != nil {
		return img, err
	}
	if cp.page.Count() > 0 {
		if err := cp.sealPage(w, &img); err != nil {
			return img, err
		}
	}
	return img, nil
}

// sealPage seals the current page, hands it to the writer, and folds it
// into the table image. Empty pages are skipped (a chunk transaction
// can legitimately image zero records only for an empty table).
func (cp *Checkpointer) sealPage(w wal.CheckpointWriter, img *wal.TableImage) error {
	if cp.page.Count() == 0 {
		return nil
	}
	page := cp.page.Seal()
	if err := w.Page(page); err != nil {
		return err
	}
	img.Pages++
	img.Records += uint64(cp.page.Count())
	img.CRC = wal.FoldPageCRC(img.CRC, page)
	cp.stPages.Add(1)
	cp.stRecords.Add(uint64(cp.page.Count()))
	cp.stBytes.Add(uint64(len(page)))
	return nil
}

// chunkTxn is the checkpointer's reusable chunk transaction: one
// instance, resubmitted for every chunk (the checkpointer waits for each
// completion before reusing it, so the engine never sees it twice
// concurrently). Free stays nil — engines must not recycle it.
type chunkTxn struct {
	txn.Txn
	cp   *Checkpointer
	tid  int
	keys []uint64
}

// logic reads the chunk's keys into the page builder. It restarts from a
// clean page on every (re)execution, making engine aborts and give-up
// resubmissions idempotent. Values are copied into the builder while the
// engine guarantees their consistency (record lock or snapshot), never
// referenced afterwards.
func (t *chunkTxn) logic(ctx txn.Ctx) error {
	b := &t.cp.page
	b.Reset(t.tid)
	for _, k := range t.keys {
		rec, err := ctx.Read(t.tid, k)
		if err != nil {
			return err
		}
		b.Add(k, rec)
	}
	return nil
}

// reset prepares the chunk transaction for (re)submission: fresh engine
// scratch state, and — for the locked path — a declared Read op per key
// so planned-access engines can acquire exactly the chunk's records.
func (t *chunkTxn) reset(tid int, keys []uint64, snapshot bool) {
	t.tid, t.keys = tid, keys
	t.ID = 0
	t.Restarts = 0
	t.ReadOnly = snapshot
	t.Partitions = t.Partitions[:0]
	t.Ops = t.Ops[:0]
	if !snapshot {
		for _, k := range keys {
			t.Ops = append(t.Ops, txn.Op{Table: tid, Key: k, Mode: txn.Read})
		}
	}
	t.ResetScratch()
}

// CheckpointedSession is a Session owning a background checkpointer:
// Checkpoint forces one synchronously, CheckpointStats reports progress,
// and Close stops the checkpointer before closing the engine session.
type CheckpointedSession interface {
	Session
	Checkpoint() error
	CheckpointStats() CheckpointStats
}

// checkpointedSession wires a Checkpointer's lifecycle to a Session's.
type checkpointedSession struct {
	Session
	cp *Checkpointer
}

// Checkpoint implements CheckpointedSession.
func (s *checkpointedSession) Checkpoint() error { return s.cp.Checkpoint() }

// CheckpointStats implements CheckpointedSession.
func (s *checkpointedSession) CheckpointStats() CheckpointStats { return s.cp.Stats() }

// Close stops the checkpointer first — chunk transactions go through the
// inner session, which must still be open while they drain.
func (s *checkpointedSession) Close() metrics.Result {
	s.cp.Stop()
	return s.Session.Close()
}

// WithCheckpointer wraps ses with a running checkpointer when cfg.Store
// is set; with a nil Store it returns ses unchanged. This is the single
// wiring point every engine's Start calls.
func WithCheckpointer(ses Session, db *storage.DB, log *wal.Log, cfg CheckpointConfig) Session {
	if cfg.Store == nil {
		return ses
	}
	return &checkpointedSession{Session: ses, cp: StartCheckpointer(ses, db, log, cfg)}
}

// ForceCheckpoint triggers one synchronous checkpoint on a session
// wrapped by WithCheckpointer; it returns ErrCheckpointerStopped-style
// errors from the checkpointer and an error for sessions without one.
func ForceCheckpoint(ses Session) error {
	cs, ok := ses.(CheckpointedSession)
	if !ok {
		return errors.New("engine: session has no checkpointer")
	}
	return cs.Checkpoint()
}

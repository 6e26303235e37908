package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Checkpointer by compaction.
//
// A checkpoint is built from the durable log alone, never from the live
// tables: wal.Compact folds the log's sealed segments into the previous
// image and writes the result, exact as of the end L of the contiguous
// LSN prefix it covered, to a wal.CheckpointStore. The checkpointer so
// takes no lock, submits no transaction and waits on no frontier; it
// reads bytes the flusher has synced and will not touch again.
//
// The image lives in memory between checkpoints; a session's first
// checkpoint loads it from the store (wal.Image.Load).
//
// Truncation rule: the store retains the two newest committed images,
// and after committing image N the log is truncated below image N−1's
// LSN — never below N's own. If N's manifest turns out torn or corrupt at
// recovery, the store falls back to N−1, whose full tail is still intact.
// A failed checkpoint aborts its writer and truncates nothing.

// DefaultCheckpointInterval is the interval a zero
// CheckpointConfig.Interval gets.
const DefaultCheckpointInterval = time.Second

// ErrCheckpointerStopped is returned by Checkpoint after Stop.
var ErrCheckpointerStopped = errors.New("engine: checkpointer stopped")

// CheckpointConfig configures the checkpointer. A nil Store disables
// checkpointing entirely (the session is returned unwrapped).
type CheckpointConfig struct {
	// Store receives checkpoint images. Nil disables the checkpointer.
	Store wal.CheckpointStore
	// Interval between automatic checkpoints (0 → DefaultCheckpointInterval).
	Interval time.Duration
}

// Validate panics on a negative Interval; zero means the default.
func (c CheckpointConfig) Validate() {
	if c.Interval < 0 {
		panic(fmt.Sprintf("engine: CheckpointConfig.Interval %v is negative", c.Interval))
	}
}

// CheckpointStats counts the checkpointer's work.
type CheckpointStats struct {
	Checkpoints       uint64 // manifests committed
	Failed            uint64 // checkpoints that returned an error
	Pages             uint64 // pages written
	Records           uint64 // records imaged
	Bytes             uint64 // page bytes written
	ChunkRetries      uint64 // always 0; kept for bench/run.go until ROADMAP item 1(b)
	TruncatedSegments uint64 // log segments dropped by the truncation rule
	LastStartLSN      uint64 // newest committed manifest's StartLSN
}

// Checkpointer compacts the log into checkpoint images, either on a
// ticker (StartCheckpointer) or on demand (Checkpoint). One checkpoint
// runs at a time; Checkpoint serializes callers.
type Checkpointer struct {
	db  *storage.DB
	log *wal.Log
	cfg CheckpointConfig

	// mu serializes checkpoints and guards everything below it.
	mu      sync.Mutex
	stopped bool
	img     wal.Image // loaded at the first checkpoint
	segs    [][]byte  // reused Log.Sealed buffer
	prevLSN uint64    // newest committed image's LSN: the next truncation point

	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}

	stCheckpoints, stFailed, stPages, stRecords atomic.Uint64
	stBytes, stTruncated, stLastLSN             atomic.Uint64
}

// StartCheckpointer builds a checkpointer over db's log and starts its
// ticker goroutine. Checkpointing requires an enabled WAL — an image is
// built from the log and usable only together with the log tail above
// it. The image itself is built at the first checkpoint, not here.
func StartCheckpointer(db *storage.DB, log *wal.Log, cfg CheckpointConfig) *Checkpointer {
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
	cp := &Checkpointer{
		db:    db,
		log:   log,
		cfg:   cfg,
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
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
			cp.Checkpoint() // a failure is counted in Failed
		}
	}
}

// Stop halts the ticker and waits for any in-flight checkpoint to
// finish. Subsequent Checkpoint calls return ErrCheckpointerStopped. A
// stopped checkpointer never compacts again, so it lets go of its image
// (a copy of every row the log wrote) and its segment list: a closed
// session must not pin them.
func (cp *Checkpointer) Stop() {
	cp.stopOnce.Do(func() {
		close(cp.stopc)
		<-cp.donec
		cp.mu.Lock()
		cp.stopped = true
		cp.img, cp.segs = wal.Image{}, nil
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
		TruncatedSegments: cp.stTruncated.Load(),
		LastStartLSN:      cp.stLastLSN.Load(),
	}
}

// Checkpoint runs one checkpoint: compact the sealed log into the image,
// commit it, then apply the truncation rule. Serialized with the ticker's
// own checkpoints; every error but ErrCheckpointerStopped counts in
// Failed.
func (cp *Checkpointer) Checkpoint() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.stopped {
		return ErrCheckpointerStopped
	}
	if err := cp.checkpoint(); err != nil {
		cp.stFailed.Add(1)
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return nil
}

// checkpoint is Begin → Compact → Commit → Truncate(previous image's
// LSN); any error after Begin aborts the writer and truncates nothing.
func (cp *Checkpointer) checkpoint() error {
	if !cp.img.Loaded() {
		if err := cp.img.Load(cp.cfg.Store, cp.db); err != nil {
			return err
		}
		cp.prevLSN = cp.img.LSN()
	}
	segs, err := cp.log.Sealed(cp.segs[:0], cp.img.LSN())
	cp.segs = segs
	defer clear(segs) // do not pin the device's buffers between checkpoints
	if err != nil {
		return err
	}
	w, err := cp.cfg.Store.Begin()
	if err != nil {
		return err
	}
	m, bytes, err := wal.Compact(&cp.img, segs, w)
	if err == nil {
		err = w.Commit(&m)
	}
	if err != nil {
		w.Abort()
		return err
	}
	for _, t := range m.Tables {
		cp.stPages.Add(uint64(t.Pages))
		cp.stRecords.Add(t.Records)
	}
	cp.stBytes.Add(bytes)
	cp.stCheckpoints.Add(1)
	cp.stLastLSN.Store(m.StartLSN)
	cp.stTruncated.Add(uint64(cp.log.Truncate(cp.prevLSN)))
	cp.prevLSN = m.StartLSN
	return nil
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

// Close stops the checkpointer, then closes the engine session.
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
	return &checkpointedSession{Session: ses, cp: StartCheckpointer(db, log, cfg)}
}

// ForceCheckpoint triggers one synchronous checkpoint on a session
// wrapped by WithCheckpointer; it returns the checkpointer's error, or an
// error for sessions without one.
func ForceCheckpoint(ses Session) error {
	cs, ok := ses.(CheckpointedSession)
	if !ok {
		return errors.New("engine: session has no checkpointer")
	}
	return cs.Checkpoint()
}

package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// failingStore is a MemCheckpointStore whose commits fail while fail is
// set; it counts the writers aborted.
type failingStore struct {
	*wal.MemCheckpointStore
	fail   bool
	aborts int
}

func (s *failingStore) Begin() (wal.CheckpointWriter, error) {
	w, err := s.MemCheckpointStore.Begin()
	return &failingWriter{CheckpointWriter: w, s: s}, err
}

type failingWriter struct {
	wal.CheckpointWriter
	s *failingStore
}

func (w *failingWriter) Commit(m *wal.Manifest) error {
	if w.s.fail {
		return errors.New("commit failed")
	}
	return w.CheckpointWriter.Commit(m)
}

func (w *failingWriter) Abort() {
	w.s.aborts++
	w.CheckpointWriter.Abort()
}

// A checkpoint whose commit fails aborts its writer, counts in Failed and
// truncates nothing; the next checkpoint that commits truncates as usual.
func TestFailedCheckpointAbortsAndTruncatesNothing(t *testing.T) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "t", NumRecords: 8, RecordSize: 8})
	dev := wal.NewMemSegments(256)
	log := wal.NewLog(dev, wal.Group(0, 0))
	defer log.Close()
	app := log.NewAppender(nil)
	commit := func(n int) {
		for i := 0; i < n; i++ {
			key := uint64(i % 8)
			rec := db.Table(tbl).Get(key)
			storage.PutI64(rec, 0, storage.GetI64(rec, 0)+1)
			app.Note(tbl, key, rec)
			app.Commit(nil)
		}
		log.Drain()
	}
	store := &failingStore{MemCheckpointStore: wal.NewMemCheckpointStore()}
	cp := StartCheckpointer(db, log, CheckpointConfig{Store: store, Interval: time.Hour})
	defer cp.Stop()

	for i := 0; i < 2; i++ {
		commit(40)
		if err := cp.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	commit(40)
	store.fail = true
	truncated := dev.Truncated()
	if err := cp.Checkpoint(); err == nil {
		t.Fatal("checkpoint with a failing commit returned nil")
	}
	if store.aborts != 1 {
		t.Fatalf("writer aborted %d times, want 1", store.aborts)
	}
	if st := cp.Stats(); st.Failed != 1 || st.Checkpoints != 2 {
		t.Fatalf("Failed = %d, Checkpoints = %d; want 1 and 2", st.Failed, st.Checkpoints)
	}
	if got := dev.Truncated(); got != truncated {
		t.Fatalf("failed checkpoint truncated %d segments", got-truncated)
	}

	store.fail = false
	if err := cp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if dev.Truncated() == truncated {
		t.Fatal("the next committed checkpoint truncated nothing; the failure had nothing to withhold")
	}
}

// Closing a checkpointed session drops the checkpointer's compaction
// state: the image, a copy of every row the log wrote, and the segment
// list would otherwise stay reachable from the closed session.
func TestCloseDropsCompactionState(t *testing.T) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "t", NumRecords: 8, RecordSize: 8})
	log := wal.NewLog(wal.NewMemSegments(256), wal.Group(0, 0))
	defer log.Close()
	ses := WithCheckpointer(NewWorkerSession("test", 1, 4, nil, log,
		func(int, *metrics.ThreadStats) func(*txn.Txn, *Completion) {
			return func(_ *txn.Txn, c *Completion) { c.Finish() }
		}), db, log, CheckpointConfig{Store: wal.NewMemCheckpointStore(), Interval: time.Hour})
	app := log.NewAppender(nil)
	for i := 0; i < 64; i++ {
		key := uint64(i % 8)
		rec := db.Table(tbl).Get(key)
		storage.PutI64(rec, 0, storage.GetI64(rec, 0)+1)
		app.Note(tbl, key, rec)
		app.Commit(nil)
	}
	log.Drain()
	if err := ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	cp := ses.(*checkpointedSession).cp
	if !cp.img.Loaded() || cp.segs == nil {
		t.Fatalf("after a checkpoint: image loaded %v, segment list nil %v; the test checks nothing", cp.img.Loaded(), cp.segs == nil)
	}
	ses.Close()
	if cp.img.Loaded() {
		t.Error("the closed session's checkpointer still holds its image")
	}
	if cp.segs != nil {
		t.Error("the closed session's checkpointer still holds its segment list")
	}
}

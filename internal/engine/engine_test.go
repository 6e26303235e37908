package engine

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
)

func TestUndoLogRollback(t *testing.T) {
	var u UndoLog
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	u.Record(a)
	copy(a, []byte{9, 9, 9, 9})
	u.Record(b)
	copy(b, []byte{8, 8, 8, 8})
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	u.Rollback()
	if !bytes.Equal(a, []byte{1, 2, 3, 4}) || !bytes.Equal(b, []byte{5, 6, 7, 8}) {
		t.Fatalf("rollback failed: a=%v b=%v", a, b)
	}
	if u.Len() != 0 {
		t.Fatal("log not reset after rollback")
	}
}

func TestUndoLogDoubleRecordRestoresFirstImage(t *testing.T) {
	var u UndoLog
	rec := []byte{1}
	u.Record(rec)
	rec[0] = 2
	u.Record(rec) // second image (value 2)
	rec[0] = 3
	u.Rollback() // reverse order: restore 2, then 1
	if rec[0] != 1 {
		t.Fatalf("rec = %d, want 1", rec[0])
	}
}

func TestUndoLogResetOnCommit(t *testing.T) {
	var u UndoLog
	rec := []byte{1}
	u.Record(rec)
	rec[0] = 2
	u.Reset()
	u.Rollback() // must be a no-op
	if rec[0] != 2 {
		t.Fatal("Rollback after Reset modified record")
	}
}

func TestUndoLogArenaGrowth(t *testing.T) {
	var u UndoLog
	big := make([]byte, 1<<17) // larger than the default arena chunk
	big[0] = 7
	u.Record(big)
	big[0] = 8
	u.Rollback()
	if big[0] != 7 {
		t.Fatal("large record not restored")
	}
}

func TestIDSourceUniqueAcrossThreads(t *testing.T) {
	a, b := NewIDSource(1), NewIDSource(2)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.Next(), b.Next()} {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestTimestampMonotonicPerThread(t *testing.T) {
	prev := Timestamp(3)
	for i := 0; i < 100; i++ {
		ts := Timestamp(3)
		if ts < prev {
			t.Fatal("timestamp went backwards")
		}
		prev = ts
	}
	// Thread id occupies the low bits.
	if Timestamp(5)&0x3FF != 5 {
		t.Fatal("thread id not embedded")
	}
}

func TestRunWorkersStopsAndDrains(t *testing.T) {
	var iterations atomic.Int64
	elapsed := RunWorkers(4, 20*time.Millisecond, func(thread int, stop *atomic.Bool) {
		for !stop.Load() {
			iterations.Add(1)
			time.Sleep(time.Millisecond)
		}
	})
	if elapsed < 20*time.Millisecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
	if iterations.Load() == 0 {
		t.Fatal("workers never ran")
	}
}

func newPlannedTestDB(t *testing.T) (*storage.DB, int) {
	t.Helper()
	db := storage.NewDB()
	id := db.Create(storage.Layout{Name: "t", NumRecords: 16, RecordSize: 8})
	return db, id
}

func TestPlannedCtxEnforcesDeclaredSet(t *testing.T) {
	db, tbl := newPlannedTestDB(t)
	tx := &txn.Txn{Ops: []txn.Op{
		{Table: tbl, Key: 1, Mode: txn.Read},
		{Table: tbl, Key: 2, Mode: txn.Write},
	}}
	tx.SortOps()
	ctx := &PlannedCtx{DB: db}
	ctx.Begin(tx)

	if _, err := ctx.Read(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Read(tbl, 2); err != nil {
		t.Fatal("read of write-declared key refused:", err)
	}
	if _, err := ctx.Write(tbl, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Write(tbl, 1); !errors.Is(err, txn.ErrEstimateMiss) {
		t.Fatalf("write on read-declared key: err = %v", err)
	}
	if _, err := ctx.Read(tbl, 9); !errors.Is(err, txn.ErrEstimateMiss) {
		t.Fatalf("undeclared read: err = %v", err)
	}
}

// fourWordTx declares Write on keys 1..3 of a fresh table of four-word
// records pre-filled with key<<8|word, and returns a Logic that stamps
// every word of every record and then — when miss is set — touches the
// undeclared key 9, the OLLP estimate miss *after* the writes.
func fourWordTx(t *testing.T) (*storage.DB, int, *txn.Txn, *bool) {
	t.Helper()
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "t", NumRecords: 16, RecordSize: 32})
	for k := uint64(0); k < 16; k++ {
		for w := 0; w < 4; w++ {
			storage.PutU64(db.Table(tbl).Get(k), 8*w, k<<8|uint64(w))
		}
	}
	miss := new(bool)
	tx := &txn.Txn{Ops: []txn.Op{
		{Table: tbl, Key: 1, Mode: txn.Write},
		{Table: tbl, Key: 2, Mode: txn.Write},
		{Table: tbl, Key: 3, Mode: txn.Write},
	}}
	tx.SortOps()
	tx.Logic = func(c txn.Ctx) error {
		for k := uint64(1); k <= 3; k++ {
			rec, err := c.Write(tbl, k)
			if err != nil {
				return err
			}
			for w := 0; w < 4; w++ {
				storage.PutU64(rec, 8*w, 0xC0DE0000|k<<8|uint64(w))
			}
		}
		if *miss {
			_, err := c.Read(tbl, 9)
			return err
		}
		return nil
	}
	return db, tbl, tx, miss
}

// tableWords snapshots every word of the four-word test table.
func tableWords(db *storage.DB, tbl int) [16][4]uint64 {
	var out [16][4]uint64
	for k := range out {
		for w := range out[k] {
			out[k][w] = storage.GetU64(db.Table(tbl).Get(uint64(k)), 8*w)
		}
	}
	return out
}

// A re-plannable attempt (Replan set) that misses after its writes is
// rolled back word for word, and the retry commits.
func TestPlannedCtxAbortRollsBack(t *testing.T) {
	db, tbl, tx, miss := fourWordTx(t)
	tx.Replan = func(*txn.Txn) { *miss = false }
	before := tableWords(db, tbl)
	ctx := &PlannedCtx{DB: db}

	*miss = true
	ctx.Begin(tx)
	if err := tx.Logic(ctx); !errors.Is(err, txn.ErrEstimateMiss) {
		t.Fatalf("first attempt: err = %v, want an estimate miss", err)
	}
	if ctx.Undo.Len() != 3 {
		t.Fatalf("re-plannable attempt kept %d before-images, want 3", ctx.Undo.Len())
	}
	if tableWords(db, tbl) == before {
		t.Fatal("the attempt wrote nothing: the rollback below would prove nothing")
	}
	ctx.Abort()
	if got := tableWords(db, tbl); got != before {
		t.Fatalf("abort did not restore every word:\n got %x\nwant %x", got, before)
	}

	tx.Replan(tx)
	ctx.Begin(tx)
	if err := tx.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Commit()
	if ctx.Undo.Len() != 0 {
		t.Fatalf("commit left %d before-images", ctx.Undo.Len())
	}
	if got := storage.GetU64(db.Table(tbl).Get(2), 8); got != 0xC0DE0000|2<<8|1 {
		t.Fatalf("commit lost the write: word = %x", got)
	}
}

// An exact-set attempt (Replan nil) cannot roll back, so it keeps no
// before-images — and commits exactly the bytes a re-plannable one does.
func TestPlannedCtxKeepsNoImagesWithoutReplan(t *testing.T) {
	var committed [2][16][4]uint64
	for i, replan := range []func(*txn.Txn){nil, func(*txn.Txn) {}} {
		db, tbl, tx, _ := fourWordTx(t)
		tx.Replan = replan
		ctx := &PlannedCtx{DB: db}
		ctx.Begin(tx)
		if err := tx.Logic(ctx); err != nil {
			t.Fatal(err)
		}
		if want := 3 * i; ctx.Undo.Len() != want {
			t.Fatalf("Replan set=%v: %d before-images mid-attempt, want %d", replan != nil, ctx.Undo.Len(), want)
		}
		ctx.Commit()
		committed[i] = tableWords(db, tbl)
	}
	if committed[0] != committed[1] {
		t.Fatal("an attempt without before-images committed different bytes")
	}
	// The rule is per attempt, not per context: a worker's next
	// transaction may be re-plannable.
	db, tbl, tx, miss := fourWordTx(t)
	ctx := &PlannedCtx{DB: db}
	ctx.Begin(tx)
	tx.Logic(ctx)
	ctx.Commit()
	tx.Replan = func(*txn.Txn) {}
	*miss = true
	clear(db.Table(tbl).Get(2)) // so the second attempt's stamps differ from what is there
	before := tableWords(db, tbl)
	ctx.Begin(tx)
	tx.Logic(ctx)
	ctx.Abort()
	if tableWords(db, tbl) != before {
		t.Fatal("a re-plannable attempt after an exact-set one was not rolled back")
	}
}

func TestPlannedCtxInsert(t *testing.T) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "g", NumRecords: 0, RecordSize: 8, Growable: true})
	ctx := &PlannedCtx{DB: db}
	ctx.Begin(&txn.Txn{})
	if err := ctx.Insert(tbl, 5, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if db.Table(tbl).Get(5) == nil {
		t.Fatal("insert not visible")
	}
}

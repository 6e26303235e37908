package wal

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// devBytes reports the bytes written to dev and the bytes a crash is
// guaranteed to preserve (the synced prefix of every segment).
func devBytes(dev *MemSegments) (written, synced int) {
	for _, s := range dev.Segments() {
		written += s.Bytes
	}
	for _, s := range dev.CrashSegments() {
		synced += len(s)
	}
	return written, synced
}

func TestRecordRoundTrip(t *testing.T) {
	writes := []redoWrite{
		{table: 0, key: 7, val: []byte("hello")},
		{table: 3, key: 1 << 40, val: make([]byte, 100)},
		{table: 1, key: 0, val: nil},
	}
	buf := appendRecord(nil, 42, writes)
	rec, n, ok := decodeRecord(buf)
	if !ok || n != len(buf) {
		t.Fatalf("decode failed: ok=%v n=%d len=%d", ok, n, len(buf))
	}
	if rec.lsn != 42 || len(rec.writes) != len(writes) {
		t.Fatalf("lsn=%d writes=%d", rec.lsn, len(rec.writes))
	}
	for i, w := range rec.writes {
		if w.table != writes[i].table || w.key != writes[i].key || !bytes.Equal(w.val, writes[i].val) {
			t.Fatalf("write %d mismatch: %+v vs %+v", i, w, writes[i])
		}
	}
}

// A record truncated at any byte boundary must fail decoding cleanly —
// never panic, never decode into a wrong record.
func TestRecordTornAtEveryByte(t *testing.T) {
	buf := appendRecord(nil, 9, []redoWrite{{table: 2, key: 5, val: []byte("payload")}})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, ok := decodeRecord(buf[:cut]); ok {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(buf))
		}
	}
	// Corrupt each byte in turn: decoding must fail (or, for bytes past
	// the checksummed region, never misreport the LSN or writes).
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		if rec, _, ok := decodeRecord(mut); ok {
			t.Fatalf("corruption at byte %d decoded: %+v", i, rec)
		}
	}
}

func TestGroupCommitSizeTrigger(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(4, time.Hour)) // interval never fires
	defer l.Close()
	a := l.NewAppender(nil)
	var acked atomic.Int64
	rec := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 3; i++ {
		a.Note(0, uint64(i), rec)
		a.Commit(func() { acked.Add(1) })
	}
	time.Sleep(20 * time.Millisecond)
	if n := acked.Load(); n != 0 {
		t.Fatalf("acks before the group filled: %d", n)
	}
	a.Note(0, 3, rec)
	a.Commit(func() { acked.Add(1) })
	waitFor(t, "group of 4 acks", func() bool { return acked.Load() == 4 })
	if written, synced := devBytes(dev); synced != written || written == 0 {
		t.Fatalf("acks fired without full sync: synced=%d len=%d", synced, written)
	}
}

func TestGroupCommitIntervalTrigger(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(1<<20, time.Millisecond)) // size never fires
	defer l.Close()
	a := l.NewAppender(nil)
	var acked atomic.Int64
	a.Note(0, 1, []byte{1})
	start := time.Now()
	a.Commit(func() { acked.Add(1) })
	waitFor(t, "interval ack", func() bool { return acked.Load() == 1 })
	if d := time.Since(start); d > time.Second {
		t.Fatalf("interval flush took %v", d)
	}
}

// Acknowledgments fire in LSN order even when appender buffers reach the
// device out of LSN order.
func TestAcksInLSNOrder(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(8, 500*time.Microsecond))
	defer l.Close()
	const threads, perThread = 4, 200
	var mu sync.Mutex
	var order []uint64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := l.NewAppender(nil)
			for j := 0; j < perThread; j++ {
				a.Note(0, uint64(j), []byte{byte(i), byte(j)})
				a.Commit(func() {
					// Runs on the flusher goroutine, which has already
					// advanced its frontier to this commit's LSN; the
					// recorded sequence must therefore be ascending.
					mu.Lock()
					order = append(order, l.frontier)
					mu.Unlock()
				})
			}
		}(i)
	}
	wg.Wait()
	l.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != threads*perThread {
		t.Fatalf("acks = %d, want %d", len(order), threads*perThread)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("ack %d saw frontier %d after %d — out of LSN order", i, order[i], order[i-1])
		}
	}
	if got := l.DurableLSN(); got != uint64(threads*perThread) {
		t.Fatalf("durable LSN %d, want %d", got, threads*perThread)
	}
}

func TestAsyncAcksInlineAndDrainWaits(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Async())
	defer l.Close()
	a := l.NewAppender(nil)
	fired := false
	a.Note(0, 1, []byte{9})
	a.Commit(func() { fired = true })
	if !fired {
		t.Fatal("async ack did not fire inline")
	}
	l.Drain()
	if l.DurableLSN() != 1 {
		t.Fatalf("drain returned with durable LSN %d", l.DurableLSN())
	}
	if written, synced := devBytes(dev); synced == 0 || synced != written {
		t.Fatalf("drain returned before the record was synced to the device: synced=%d len=%d", synced, written)
	}
}

// A read-only transaction that may have observed a not-yet-durable
// write (early lock release) must not be acknowledged ahead of it: its
// ack waits for the log tail it saw at commit, and fires after the
// writer's.
func TestReadOnlyAckWaitsForObservedWrites(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(1<<20, time.Hour)) // flushes only when forced
	defer l.Close()
	a := l.NewAppender(nil)
	var mu sync.Mutex
	var order []string
	record := func(tag string) func() {
		return func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	a.Note(0, 1, []byte{1})
	a.Commit(record("write"))
	a.Commit(record("read-only")) // no writes captured: observed tail = LSN 1
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if len(order) != 0 {
		t.Fatalf("acks fired before the observed write was durable: %v", order)
	}
	mu.Unlock()
	l.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "write" || order[1] != "read-only" {
		t.Fatalf("ack order = %v, want [write read-only]", order)
	}
}

// Once the log tail is durable, a read-only commit acknowledges inline —
// the fast path that keeps read-mostly workloads off the flush cadence.
func TestReadOnlyAckInlineWhenTailDurable(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(4, time.Millisecond))
	defer l.Close()
	a := l.NewAppender(nil)
	a.Note(0, 1, []byte{1})
	var wrote atomic.Bool
	a.Commit(func() { wrote.Store(true) })
	l.Drain()
	fired := false
	a.Commit(func() { fired = true })
	if !fired || !wrote.Load() {
		t.Fatalf("read-only ack not inline on a durable tail (fired=%v)", fired)
	}
}

func TestReadOnlyCommitSkipsLog(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(4, time.Millisecond))
	defer l.Close()
	a := l.NewAppender(nil)
	fired := false
	a.Commit(func() { fired = true })
	if !fired {
		t.Fatal("read-only commit did not ack inline")
	}
	if l.LastLSN() != 0 {
		t.Fatalf("read-only commit consumed LSN %d", l.LastLSN())
	}
}

func TestAbortDiscardsCapture(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(1, time.Millisecond))
	defer l.Close()
	a := l.NewAppender(nil)
	a.Note(0, 1, []byte{1})
	if a.Pending() != 1 {
		t.Fatal("note not captured")
	}
	a.Abort()
	if a.Pending() != 0 {
		t.Fatal("abort kept captures")
	}
	a.Commit(nil) // read-only now
	l.Drain()
	if l.LastLSN() != 0 {
		t.Fatal("aborted writes were logged")
	}
}

func TestDuplicateNoteCollapses(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(1, time.Millisecond))
	defer l.Close()
	a := l.NewAppender(nil)
	rec := []byte{1}
	a.Note(3, 7, rec)
	a.Note(3, 7, rec)
	a.Note(2, 7, rec)
	if a.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", a.Pending())
	}
}

func TestFlushStallAccounting(t *testing.T) {
	var stats metrics.ThreadStats
	l := NewLog(NewMemSegments(0), Group(1<<20, 2*time.Millisecond))
	defer l.Close()
	a := l.NewAppender(&stats)
	var done atomic.Bool
	a.Note(0, 1, []byte{1})
	a.Commit(func() { done.Store(true) })
	waitFor(t, "ack", done.Load)
	l.Drain()
	if stats.LogNanos <= 0 {
		t.Fatalf("LogNanos = %d, want > 0 (flush stall of ~interval)", stats.LogNanos)
	}
}

func TestStatsCountersAndAmortization(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(64, time.Hour))
	a := l.NewAppender(nil)
	for i := 0; i < 256; i++ {
		a.Note(0, uint64(i), []byte{byte(i)})
		a.Commit(nil)
	}
	l.Drain()
	st := l.Stats()
	if st.Records != 256 {
		t.Fatalf("records = %d", st.Records)
	}
	if st.Flushes == 0 || st.RecordsPerFlush() < 2 {
		t.Fatalf("no group amortization: flushes=%d recs/flush=%.1f", st.Flushes, st.RecordsPerFlush())
	}
	// Every sync follows a flush that wrote bytes, and after the drain
	// every counted byte is on the device and covered by a sync.
	if st.Syncs == 0 || st.Syncs > st.Flushes {
		t.Fatalf("sync accounting: syncs=%d flushes=%d", st.Syncs, st.Flushes)
	}
	if written, synced := devBytes(dev); uint64(written) != st.Bytes || synced != written {
		t.Fatalf("byte accounting: stats=%d written=%d synced=%d", st.Bytes, written, synced)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // second Close is a no-op
		t.Fatal(err)
	}
}

func TestDisabledLogIsInert(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log enabled")
	}
	l.Drain()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	off := NewLog(nil, Off())
	if off.Enabled() {
		t.Fatal("off log enabled")
	}
	off.Drain()
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- replay ------------------------------------------------------------

func replayDB(t *testing.T, rows uint64) (*storage.DB, int) {
	t.Helper()
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "t", NumRecords: rows, RecordSize: 8})
	return db, tbl
}

func TestReplayAppliesContiguousPrefix(t *testing.T) {
	db, tbl := replayDB(t, 16)
	val := func(v byte) []byte { return []byte{v, 0, 0, 0, 0, 0, 0, 0} }
	// Device order 2, 1, 4: LSN 3 missing (stuck in a crashed appender's
	// buffer). Only 1..2 may apply; 4 was never acknowledged.
	img := appendRecord(nil, 2, []redoWrite{{table: int32(tbl), key: 1, val: val(2)}})
	img = appendRecord(img, 1, []redoWrite{{table: int32(tbl), key: 0, val: val(1)}})
	img = appendRecord(img, 4, []redoWrite{{table: int32(tbl), key: 2, val: val(4)}})
	st := Replay([][]byte{img}, 0, 1, db)
	if st.Scanned != 3 || st.Applied != 2 || st.AppliedLSN != 2 || st.Torn {
		t.Fatalf("stats = %+v", st)
	}
	if got := db.Table(tbl).Get(0)[0]; got != 1 {
		t.Fatalf("key 0 = %d", got)
	}
	if got := db.Table(tbl).Get(1)[0]; got != 2 {
		t.Fatalf("key 1 = %d", got)
	}
	if got := db.Table(tbl).Get(2)[0]; got != 0 {
		t.Fatalf("unacknowledged LSN 4 applied: key 2 = %d", got)
	}
}

func TestReplayTornTail(t *testing.T) {
	img := appendRecord(nil, 1, []redoWrite{{table: 0, key: 0, val: []byte{1, 0, 0, 0, 0, 0, 0, 0}}})
	whole := len(img)
	img = appendRecord(img, 2, []redoWrite{{table: 0, key: 1, val: []byte{2, 0, 0, 0, 0, 0, 0, 0}}})
	for cut := 0; cut <= len(img); cut++ {
		db, _ := replayDB(t, 4)
		st := Replay([][]byte{img[:cut]}, 0, 1, db)
		wantApplied := 0
		if cut >= whole {
			wantApplied = 1
		}
		if cut == len(img) {
			wantApplied = 2
		}
		if st.Applied != wantApplied {
			t.Fatalf("cut %d: applied %d, want %d", cut, st.Applied, wantApplied)
		}
		wantTorn := cut != whole && cut != len(img) && cut != 0
		if st.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v want %v", cut, st.Torn, wantTorn)
		}
	}
}

// End-to-end: log through appenders, crash at the synced boundary, replay.
func TestReplayFromDeviceImage(t *testing.T) {
	dev := NewMemSegments(0)
	l := NewLog(dev, Group(8, 100*time.Microsecond))
	live, tbl := replayDB(t, 64)
	a := l.NewAppender(nil)
	for i := uint64(0); i < 64; i++ {
		rec := live.Table(tbl).Get(i)
		storage.PutU64(rec, 0, i*3)
		a.Note(tbl, i, rec)
		a.Commit(nil)
	}
	l.Drain()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, tbl2 := replayDB(t, 64)
	st := Replay(dev.CrashSegments(), 0, 1, rebuilt)
	if st.Applied != 64 || st.Torn {
		t.Fatalf("stats = %+v", st)
	}
	for i := uint64(0); i < 64; i++ {
		if got := storage.GetU64(rebuilt.Table(tbl2).Get(i), 0); got != i*3 {
			t.Fatalf("key %d = %d, want %d", i, got, i*3)
		}
	}
}

// gatedDevice holds the flusher inside its first Sync: after the pass has
// swept the appenders, before it advances the durable frontier.
type gatedDevice struct {
	*MemSegments
	once          sync.Once
	entered, gate chan struct{}
}

func (d *gatedDevice) Sync() error {
	d.once.Do(func() {
		close(d.entered)
		<-d.gate
	})
	return d.MemSegments.Sync()
}

// The read-only inline fast path must not overtake an earlier read-only
// commit of the same appender. That earlier commit can be unfired while
// the durable frontier already covers the tail it observed: it was
// enqueued after the pass that made the tail durable had swept its
// appender, so it waits for the next pass. Firing the later commit inline
// then runs two completions of one thread concurrently — worker and
// flusher both wrote the thread's latency histogram, which is what
// `go test -race` reported on TestDurableMixedReadWriteWorkload. The test
// builds the interleaving deterministically: the device gate holds pass 1
// between its sweep and its frontier store, and the hour-long group
// window holds pass 2 before its waiter fire.
func TestReadOnlyInlineWaitsForEarlierReadOnlyWaiter(t *testing.T) {
	dev := &gatedDevice{MemSegments: NewMemSegments(0), entered: make(chan struct{}), gate: make(chan struct{})}
	l := NewLog(dev, Group(1<<20, time.Hour)) // a pass runs only when forced
	defer l.Close()
	a := l.NewAppender(nil)

	a.Note(0, 1, []byte{1})
	a.Commit(nil) // LSN 1
	go l.WaitDurable(1)
	<-dev.entered // pass 1 has swept the appender and is inside Sync

	var first, second atomic.Bool
	a.Commit(func() { first.Store(true) }) // read-only, tail 1 not durable yet: waits, behind the sweep
	close(dev.gate)
	waitFor(t, "pass 1 to make LSN 1 durable", func() bool { return l.DurableLSN() == 1 })
	if first.Load() {
		t.Fatal("the first read-only commit fired in the pass that had already swept its appender")
	}

	a.Commit(func() { second.Store(true) }) // read-only, tail 1 durable — but the first is still unfired
	if second.Load() {
		t.Fatal("read-only commit fired inline while an earlier read-only commit of the same appender was unfired")
	}

	// A forced pass fires both, from the flusher, and the fast path is
	// available again once nothing is outstanding.
	a.Note(0, 2, []byte{2})
	a.Commit(nil)
	l.Drain()
	if !first.Load() || !second.Load() {
		t.Fatalf("waiters not fired by the next pass (first=%v second=%v)", first.Load(), second.Load())
	}
	inline := false
	a.Commit(func() { inline = true })
	if !inline {
		t.Fatal("read-only commit on a durable tail with no outstanding waiter did not fire inline")
	}
}

// --- self-clocked group commit -------------------------------------------

// lsnRecorder collects the LSN order in which acks fire. The acks run on
// the flusher, which has just advanced its frontier to the fired LSN.
type lsnRecorder struct {
	mu    sync.Mutex
	l     *Log
	order []uint64
}

func (r *lsnRecorder) ack() {
	r.mu.Lock()
	r.order = append(r.order, r.l.frontier)
	r.mu.Unlock()
}

func (r *lsnRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// wantDense fails unless exactly the LSNs 1..last fired, ascending.
func (r *lsnRecorder) wantDense(t *testing.T, last uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if uint64(len(r.order)) != last {
		t.Fatalf("%d acks fired, want LSNs 1..%d", len(r.order), last)
	}
	for i, lsn := range r.order {
		if lsn != uint64(i)+1 {
			t.Fatalf("ack %d fired at LSN %d, want %d (order %v)", i, lsn, i+1, r.order)
		}
	}
}

// With no fill window, the group is whatever arrived while the previous
// pass was busy: N commits that land while pass 1 sits in the device
// sync are all carried by pass 2, in one flush, acknowledged in LSN order.
func TestSelfClockedGroupFormsDuringSync(t *testing.T) {
	dev := &gatedDevice{MemSegments: NewMemSegments(0), entered: make(chan struct{}), gate: make(chan struct{})}
	l := NewLog(dev, Group(0, 0))
	defer l.Close()
	rec := &lsnRecorder{l: l}
	apps := []*Appender{l.NewAppender(nil), l.NewAppender(nil), l.NewAppender(nil)}

	apps[0].Note(0, 0, []byte{0})
	apps[0].Commit(rec.ack) // LSN 1: nothing else pending, so pass 1 carries it alone
	<-dev.entered           // pass 1 is inside Sync

	const n = 100 // more than the initial reorder window
	for i := 1; i <= n; i++ {
		a := apps[i%len(apps)]
		a.Note(0, uint64(i), []byte{byte(i)})
		a.Commit(rec.ack)
	}
	if got := rec.count(); got != 0 {
		t.Fatalf("%d acks fired while pass 1 was still syncing", got)
	}
	close(dev.gate)
	waitFor(t, "every ack", func() bool { return rec.count() == n+1 })
	rec.wantDense(t, n+1)
	if st := l.Stats(); st.Flushes != 2 || st.MaxFlushRecords != n || st.Records != n+1 {
		t.Fatalf("stats = %+v, want 2 flushes, the second carrying all %d commits", st, n)
	}
}

// sealLate plays an appender preempted mid-seal: reserve hands out the
// next LSN the way CommitWith does, seal queues its record and ack later.
// (CommitWith does both inside one critical section, which is what makes
// LSNs dense; the flusher meets the gap whenever its sweep passes an
// appender just before that section and another appender just after.)
func sealLate(a *Appender, lsn uint64, fn func()) {
	a.mu.Lock()
	a.buf = appendRecord(a.buf, lsn, []redoWrite{{table: 0, key: lsn, val: []byte{1}}})
	a.acks = append(a.acks, ack{lsn: lsn, enq: time.Now(), fn: fn})
	a.mu.Unlock()
	a.log.enqueued()
}

// A stolen ack whose predecessor is not on the device yet waits in the
// reorder window — however many passes and however many later LSNs go by,
// including more than the window's initial size — and everything fires in
// LSN order once the predecessor arrives.
func TestReorderWindowHoldsAcksBehindAGapAndGrows(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(0, 0))
	rec := &lsnRecorder{l: l}
	a, b := l.NewAppender(nil), l.NewAppender(nil)

	a.Note(0, 0, []byte{0})
	a.Commit(rec.ack) // LSN 1
	waitFor(t, "LSN 1 durable", func() bool { return l.DurableLSN() == 1 })

	held := l.nextLSN.Add(1) // LSN 2: a's, assigned but not sealed
	b.Note(0, 1, []byte{1})
	b.Commit(rec.ack) // LSN 3
	waitFor(t, "LSN 3 on the device", func() bool { return l.Stats().Records == 2 })
	if l.DurableLSN() != 1 || rec.count() != 1 {
		t.Fatalf("LSN 3 acknowledged ahead of unsealed LSN 2: durable=%d acks=%d", l.DurableLSN(), rec.count())
	}

	const burst = 3 * ackWindowSize
	for i := 0; i < burst; i++ {
		b.Note(0, uint64(i), []byte{byte(i)})
		b.Commit(rec.ack)
		if i == burst/2 {
			// Split the burst over at least two passes.
			waitFor(t, "first half of the burst on the device", func() bool { return l.Stats().Records == uint64(i)+3 })
		}
	}
	waitFor(t, "the burst on the device", func() bool { return l.Stats().Records == burst+2 })
	if l.DurableLSN() != 1 || rec.count() != 1 {
		t.Fatalf("acks fired past the gap at LSN %d: durable=%d acks=%d", held, l.DurableLSN(), rec.count())
	}

	sealLate(a, held, rec.ack)
	l.Drain()
	rec.wantDense(t, burst+3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The flusher has exited; its window is safe to inspect.
	if len(l.win) < burst || len(l.win)&(len(l.win)-1) != 0 {
		t.Fatalf("window size %d after a %d-LSN gap, want a power of two ≥ %d", len(l.win), burst+1, burst)
	}
	for i, k := range l.win {
		if k.lsn != 0 || k.fn != nil {
			t.Fatalf("window slot %d still holds LSN %d after the drain", i, k.lsn)
		}
	}
}

// A self-clocked flusher has no timer to fall back on: whenever every
// client is waiting for an ack, the one wake token a commit sends is all
// that gets it moving again. Several clients each commit, wait for the
// ack, and commit again, so the flusher goes idle and is woken tens of
// thousands of times; every commit must be acknowledged, and the watchdog
// fails, not hangs, the test if one is not.
func TestSerialClientsLoseNoWakeup(t *testing.T) {
	rounds := 50000
	if testing.Short() {
		rounds = 10000
	}
	const clients = 4
	l := NewLog(NewMemSegments(0), Group(0, 0))
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := l.NewAppender(nil)
			// Waiting by yielding keeps the OS threads awake, so a round
			// costs a goroutine switch, not a futex wake.
			var acked atomic.Bool
			ack := func() { acked.Store(true) }
			for i := 0; i < rounds; i++ {
				a.Note(0, uint64(c), []byte{byte(i)})
				a.Commit(ack)
				for !acked.Swap(false) {
					runtime.Gosched()
				}
				completed.Add(1)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog := time.NewTimer(2 * time.Minute)
	select {
	case <-done:
		watchdog.Stop()
	case <-watchdog.C:
		stuck := completed.Load()
		l.Close() // the drain forces a pass, releasing the clients
		t.Fatalf("a commit was never acknowledged: %d of %d rounds done (pending=%d)",
			stuck, clients*rounds, l.pending.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != uint64(clients*rounds) || l.DurableLSN() != uint64(clients*rounds) {
		t.Fatalf("records=%d durable=%d, want %d", st.Records, l.DurableLSN(), clients*rounds)
	}
}

// A self-clocked group never waits for company: the size trigger is
// unused and no window exists, so a lone commit is its own flush.
func TestSelfClockedLoneCommitFlushesAtOnce(t *testing.T) {
	l := NewLog(NewMemSegments(0), Group(1<<20, 0))
	defer l.Close()
	if p := l.Policy(); p.Interval != 0 || p.String() != "group" {
		t.Fatalf("policy %v has a %v fill window; a zero interval must stay zero (it is what arms the timer)", p, p.Interval)
	}
	a := l.NewAppender(nil)
	acked := make(chan struct{})
	for i := uint64(1); i <= 5; i++ {
		a.Note(0, i, []byte{byte(i)})
		a.Commit(func() { acked <- struct{}{} })
		<-acked
		if st := l.Stats(); st.Flushes != i || st.Records != i {
			t.Fatalf("after lone commit %d: flushes=%d records=%d", i, st.Flushes, st.Records)
		}
	}
}

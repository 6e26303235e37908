package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/txn"
)

// blockHandler is a local copy of the no-abort policy so this package's
// tests do not import internal/deadlock (which imports this package).
type blockHandler struct{}

func (blockHandler) Name() string                             { return "block" }
func (blockHandler) OnConflict(*Request, []*Request) Decision { return Wait }
func (blockHandler) Wait(_ *Table, r *Request) bool           { r.AwaitToken(); return true }
func (blockHandler) OnGranted(*Request)                       {}
func (blockHandler) OnAborted(*Request)                       {}

// dieHandler aborts every conflicting request immediately.
type dieHandler struct{}

func (dieHandler) Name() string                             { return "die" }
func (dieHandler) OnConflict(*Request, []*Request) Decision { return Die }
func (dieHandler) Wait(*Table, *Request) bool               { return true }
func (dieHandler) OnGranted(*Request)                       {}
func (dieHandler) OnAborted(*Request)                       {}

func newReq(f *Freelist, id uint64, thread int) *Request {
	return f.Get(id, id, thread)
}

func TestSharedLocksCoexist(t *testing.T) {
	tbl := NewTable(16, blockHandler{})
	var f Freelist
	r1, r2 := newReq(&f, 1, 0), newReq(&f, 2, 1)
	if _, err := tbl.Acquire(r1, 0, 7, txn.Read); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Acquire(r2, 0, 7, txn.Read); err != nil {
		t.Fatal(err)
	}
	if !r1.Granted() || !r2.Granted() {
		t.Fatal("shared locks not both granted")
	}
	tbl.Release(r1)
	tbl.Release(r2)
}

func TestExclusiveConflictDies(t *testing.T) {
	tbl := NewTable(16, dieHandler{})
	var f Freelist
	r1, r2 := newReq(&f, 1, 0), newReq(&f, 2, 1)
	if _, err := tbl.Acquire(r1, 0, 7, txn.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Acquire(r2, 0, 7, txn.Write); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if _, err := tbl.Acquire(r2, 0, 7, txn.Read); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("read/write conflict err = %v", err)
	}
	tbl.Release(r1)
	// After release the same key is free again.
	if _, err := tbl.Acquire(r2, 0, 7, txn.Write); err != nil {
		t.Fatal(err)
	}
	tbl.Release(r2)
}

func TestWriterWaitsForReader(t *testing.T) {
	tbl := NewTable(16, blockHandler{})
	var f Freelist
	rd := newReq(&f, 1, 0)
	if _, err := tbl.Acquire(rd, 0, 1, txn.Read); err != nil {
		t.Fatal(err)
	}
	var wrGranted atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var f2 Freelist
		wr := newReq(&f2, 2, 1)
		if _, err := tbl.Acquire(wr, 0, 1, txn.Write); err != nil {
			t.Error(err)
			return
		}
		wrGranted.Store(true)
		tbl.Release(wr)
	}()
	time.Sleep(5 * time.Millisecond)
	if wrGranted.Load() {
		t.Fatal("writer granted while reader holds lock")
	}
	tbl.Release(rd)
	<-done
	if !wrGranted.Load() {
		t.Fatal("writer never granted after release")
	}
}

// Strict FIFO: a reader arriving behind a waiting writer must queue, not
// overtake, so writers cannot starve.
func TestReaderDoesNotOvertakeWaitingWriter(t *testing.T) {
	tbl := NewTable(16, blockHandler{})
	var f Freelist
	r1 := newReq(&f, 1, 0)
	if _, err := tbl.Acquire(r1, 0, 5, txn.Read); err != nil {
		t.Fatal(err)
	}
	writerIn := make(chan struct{})
	var order []string
	var mu sync.Mutex
	record := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var fw Freelist
		w := newReq(&fw, 2, 1)
		close(writerIn)
		if _, err := tbl.Acquire(w, 0, 5, txn.Write); err != nil {
			t.Error(err)
			return
		}
		record("writer")
		tbl.Release(w)
	}()
	<-writerIn
	time.Sleep(2 * time.Millisecond) // let the writer enqueue
	go func() {
		defer wg.Done()
		var fr Freelist
		r2 := newReq(&fr, 3, 2)
		if _, err := tbl.Acquire(r2, 0, 5, txn.Read); err != nil {
			t.Error(err)
			return
		}
		record("reader2")
		tbl.Release(r2)
	}()
	time.Sleep(2 * time.Millisecond) // let reader2 enqueue behind writer
	tbl.Release(r1)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "writer" || order[1] != "reader2" {
		t.Fatalf("grant order = %v, want [writer reader2]", order)
	}
}

func TestReleaseGrantsCompatiblePrefix(t *testing.T) {
	tbl := NewTable(16, blockHandler{})
	var f Freelist
	w := newReq(&f, 1, 0)
	if _, err := tbl.Acquire(w, 0, 3, txn.Write); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	var granted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fr Freelist
			r := newReq(&fr, uint64(10+i), 1+i)
			if _, err := tbl.Acquire(r, 0, 3, txn.Read); err != nil {
				t.Error(err)
				return
			}
			granted.Add(1)
			// Hold briefly so all readers coexist.
			for granted.Load() < readers {
				time.Sleep(100 * time.Microsecond)
			}
			tbl.Release(r)
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if granted.Load() != 0 {
		t.Fatal("reader granted under exclusive holder")
	}
	tbl.Release(w)
	wg.Wait()
	if granted.Load() != readers {
		t.Fatalf("granted = %d, want %d", granted.Load(), readers)
	}
}

// probeHandler records what Blockers reports from inside Wait — the same
// calling context Dreadlocks uses in production (the waiting thread itself).
type probeHandler struct {
	sawBlockers chan []int
	unblock     chan struct{}
}

func (probeHandler) Name() string                             { return "probe" }
func (probeHandler) OnConflict(*Request, []*Request) Decision { return Wait }
func (h probeHandler) Wait(tbl *Table, r *Request) bool {
	bl, waiting := tbl.Blockers(r, nil)
	if waiting {
		h.sawBlockers <- append([]int(nil), bl...)
		<-h.unblock
	}
	r.AwaitToken()
	// After the grant, Blockers must report not-waiting with no blockers.
	bl, waiting = tbl.Blockers(r, bl)
	if waiting || len(bl) != 0 {
		h.sawBlockers <- []int{-1}
	} else {
		h.sawBlockers <- nil
	}
	return true
}
func (probeHandler) OnGranted(*Request) {}
func (probeHandler) OnAborted(*Request) {}

func TestBlockersReportsConflictingThreads(t *testing.T) {
	h := probeHandler{sawBlockers: make(chan []int, 2), unblock: make(chan struct{})}
	tbl := NewTable(16, h)
	var f Freelist
	holder := newReq(&f, 1, 7)
	if _, err := tbl.Acquire(holder, 0, 9, txn.Write); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var fw Freelist
		w := fw.Get(2, 2, 3)
		if _, err := tbl.Acquire(w, 0, 9, txn.Write); err != nil {
			t.Error(err)
			return
		}
		tbl.Release(w)
	}()
	bl := <-h.sawBlockers
	if len(bl) != 1 || bl[0] != 7 {
		t.Fatalf("Blockers while waiting = %v, want [7]", bl)
	}
	tbl.Release(holder)
	close(h.unblock)
	if after := <-h.sawBlockers; after != nil {
		t.Fatalf("Blockers after grant reported waiting: %v", after)
	}
	<-done
}

func TestFreelistRecycles(t *testing.T) {
	var f Freelist
	r1 := f.Get(1, 10, 0)
	f.Put(r1)
	r2 := f.Get(2, 20, 1)
	if r1 != r2 {
		t.Fatal("freelist did not recycle")
	}
	if r2.TxnID != 2 || r2.TS != 20 || r2.Thread != 1 {
		t.Fatalf("recycled request keeps stale identity: %+v", r2)
	}
}

func TestEntryPoolCleansUp(t *testing.T) {
	tbl := NewTable(4, blockHandler{})
	var f Freelist
	// Touch many keys; after release all entries must be deleted.
	for key := uint64(0); key < 100; key++ {
		r := newReq(&f, key, 0)
		if _, err := tbl.Acquire(r, 0, key, txn.Write); err != nil {
			t.Fatal(err)
		}
		tbl.Release(r)
		f.Put(r)
	}
	for i := range tbl.buckets {
		if n := tbl.buckets[i].tab.Len(); n != 0 {
			t.Fatalf("bucket %d retains %d entries", i, n)
		}
	}
}

// Mutual exclusion property under concurrency: counter increments under an
// exclusive lock are never lost.
func TestMutualExclusionCounter(t *testing.T) {
	tbl := NewTable(64, blockHandler{})
	const workers, per = 8, 500
	var counter int64 // protected by the logical lock, not by atomics
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var f Freelist
			for i := 0; i < per; i++ {
				r := f.Get(uint64(w*per+i), uint64(w*per+i), w)
				if _, err := tbl.Acquire(r, 0, 0, txn.Write); err != nil {
					t.Error(err)
					return
				}
				counter++
				tbl.Release(r)
				f.Put(r)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*per)
	}
}

// Property: any single-threaded sequence of acquire/release on a small key
// space with a die handler leaves the table empty and never blocks.
func TestAcquireReleaseProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tbl := NewTable(8, dieHandler{})
		var fl Freelist
		held := map[uint64]*Request{}
		id := uint64(0)
		for _, op := range ops {
			key := uint64(op % 8)
			if r, ok := held[key]; ok {
				tbl.Release(r)
				fl.Put(r)
				delete(held, key)
				continue
			}
			id++
			r := fl.Get(id, id, 0)
			mode := txn.Read
			if op%2 == 0 {
				mode = txn.Write
			}
			if _, err := tbl.Acquire(r, 0, key, mode); err != nil {
				fl.Put(r)
				return false // single thread: conflicts are impossible
			}
			held[key] = r
		}
		for key, r := range held {
			tbl.Release(r)
			fl.Put(r)
			delete(held, key)
		}
		for i := range tbl.buckets {
			if tbl.buckets[i].tab.Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireReportsWaitTime(t *testing.T) {
	tbl := NewTable(16, blockHandler{})
	var f Freelist
	h := newReq(&f, 1, 0)
	if _, err := tbl.Acquire(h, 0, 2, txn.Write); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		tbl.Release(h)
	}()
	var f2 Freelist
	w := newReq(&f2, 2, 1)
	waited, err := tbl.Acquire(w, 0, 2, txn.Write)
	if err != nil {
		t.Fatal(err)
	}
	if waited < 5*time.Millisecond {
		t.Fatalf("waited = %v, want >= 5ms", waited)
	}
	tbl.Release(w)
}

// handOffHandler's Wait releases the lock its waiter queued behind and
// then parks for the token, so a conflict→wait→grant cycle runs on one
// goroutine.
type handOffHandler struct{ holder *Request }

func (*handOffHandler) Name() string                             { return "hand-off" }
func (*handOffHandler) OnConflict(*Request, []*Request) Decision { return Wait }
func (h *handOffHandler) Wait(tbl *Table, r *Request) bool {
	tbl.Release(h.holder)
	r.AwaitToken()
	return true
}
func (*handOffHandler) OnGranted(*Request) {}
func (*handOffHandler) OnAborted(*Request) {}

// The conflict path runs under the bucket latch: collecting the requests
// ahead for the handler, and the grants a release returns, reuse the
// request's scratch, so neither a conflict that dies nor one that waits
// and is granted allocates once the requests have been used.
func TestConflictPathAllocatesNothing(t *testing.T) {
	t.Run("die", func(t *testing.T) {
		tbl := NewTable(16, dieHandler{})
		var f Freelist
		holder, r := newReq(&f, 1, 0), newReq(&f, 2, 1)
		if _, err := tbl.Acquire(holder, 0, 7, txn.Write); err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			if _, err := tbl.Acquire(r, 0, 7, txn.Write); !errors.Is(err, txn.ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("%v allocations per conflict→die, want 0", n)
		}
	})
	t.Run("wait", func(t *testing.T) {
		h := &handOffHandler{}
		tbl := NewTable(16, h)
		var f Freelist
		holder, r := newReq(&f, 1, 0), newReq(&f, 2, 1)
		h.holder = holder
		cycle := func() {
			if _, err := tbl.Acquire(holder, 0, 7, txn.Write); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Acquire(r, 0, 7, txn.Write); err != nil || !r.Granted() {
				t.Fatalf("waiter: err = %v, granted = %v", err, r.Granted())
			}
			tbl.Release(r)
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("%v allocations per conflict→wait→grant, want 0", n)
		}
	})
}

// abortHandler parks thread 1's waiter until the test lets it go and then
// asks for its abort, as the wait-for graph and Dreadlocks do; every
// other waiter parks for its token. Each waiter announces itself on queued
// once it is in the queue.
type abortHandler struct {
	queued chan struct{}
	abort  chan struct{}
}

func (*abortHandler) Name() string                             { return "abort" }
func (*abortHandler) OnConflict(*Request, []*Request) Decision { return Wait }
func (h *abortHandler) Wait(_ *Table, r *Request) bool {
	h.queued <- struct{}{}
	if r.Thread == 1 {
		<-h.abort
		return false
	}
	r.AwaitToken()
	return true
}
func (*abortHandler) OnGranted(*Request) {}
func (*abortHandler) OnAborted(*Request) {}

// A release races the cancel of the waiter it would grant. The grant is
// signalled after the bucket latch is dropped, so the waiter's cancel can
// find it granted (the queue's bit) before its token is sent. Either the
// grant wins — the waiter holds the lock, having drained exactly one
// token, and the writer behind it still waits — or the cancel wins — the
// waiter holds nothing, no token reaches it, and the holder's release
// grants the writer behind it. One iteration in three orders the two each
// way, so both outcomes are checked on every run; the third races them.
// Run under -race with a high -count.
func TestReleaseRacesCancel(t *testing.T) {
	h := &abortHandler{queued: make(chan struct{}), abort: make(chan struct{})}
	tbl := NewTable(16, h)
	var f0, f1, f2 Freelist
	var won [2]int // grant won, cancel won
	for i := 0; i < 200; i++ {
		holder, waiter, behind := f0.Get(1, 1, 0), f1.Get(2, 2, 1), f2.Get(3, 3, 2)
		if _, err := tbl.Acquire(holder, 0, 7, txn.Write); err != nil {
			t.Fatal(err)
		}
		waited, behindDone := make(chan error, 1), make(chan error, 1)
		go func() { _, err := tbl.Acquire(waiter, 0, 7, txn.Write); waited <- err }()
		<-h.queued
		go func() { _, err := tbl.Acquire(behind, 0, 7, txn.Write); behindDone <- err }()
		<-h.queued
		var err error
		switch i % 3 {
		case 0: // grant first
			tbl.Release(holder)
			h.abort <- struct{}{}
			err = <-waited
		case 1: // cancel first
			h.abort <- struct{}{}
			err = <-waited
			tbl.Release(holder)
		case 2:
			go func() { h.abort <- struct{}{} }()
			tbl.Release(holder)
			err = <-waited
		}
		switch {
		case err == nil:
			won[0]++
			if !waiter.Granted() || len(waiter.ready) != 0 {
				t.Fatalf("iteration %d: waiter holds the lock with granted=%v and %d tokens left", i, waiter.Granted(), len(waiter.ready))
			}
			if behind.Granted() {
				t.Fatalf("iteration %d: writer behind a granted writer was granted", i)
			}
			tbl.Release(waiter)
		case errors.Is(err, txn.ErrAborted):
			won[1]++
		default:
			t.Fatal(err)
		}
		if err := <-behindDone; err != nil || !behind.Granted() {
			t.Fatalf("iteration %d: writer behind: err = %v, granted = %v", i, err, behind.Granted())
		}
		if err != nil && (waiter.Granted() || len(waiter.ready) != 0) {
			t.Fatalf("iteration %d: cancelled waiter has granted=%v and %d tokens", i, waiter.Granted(), len(waiter.ready))
		}
		tbl.Release(behind)
		f0.Put(holder)
		f1.Put(waiter)
		f2.Put(behind)
		for b := range tbl.buckets {
			if n := tbl.buckets[b].tab.Len(); n != 0 {
				t.Fatalf("iteration %d: bucket %d keeps %d keys", i, b, n)
			}
		}
	}
	if won[0] == 0 || won[1] == 0 {
		t.Fatalf("grant won %d times, cancel won %d: an ordering went untested", won[0], won[1])
	}
	t.Logf("grant won %d, cancel won %d", won[0], won[1])
}

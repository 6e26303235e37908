package deadlock

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/txn"
)

func TestHandlerNames(t *testing.T) {
	cases := []struct {
		h    lock.Handler
		want string
	}{
		{Block{}, "deadlock-free"},
		{WaitDie{}, "2pl-waitdie"},
		{NewWaitForGraph(2), "2pl-waitfor"},
		{NewDreadlocks(2), "2pl-dreadlocks"},
	}
	for _, c := range cases {
		if got := c.h.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestWaitDieOlderWaitsYoungerDies(t *testing.T) {
	tbl := lock.NewTable(16, WaitDie{})
	var f lock.Freelist

	holder := f.Get(1, 100, 0) // ts=100
	if _, err := tbl.Acquire(holder, 0, 1, txn.Write); err != nil {
		t.Fatal(err)
	}

	// Younger requester (larger ts) dies immediately.
	young := f.Get(2, 200, 1)
	if _, err := tbl.Acquire(young, 0, 1, txn.Write); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("younger requester: err = %v, want ErrAborted", err)
	}

	// Older requester (smaller ts) waits and is eventually granted.
	done := make(chan error, 1)
	go func() {
		var f2 lock.Freelist
		old := f2.Get(3, 50, 2)
		_, err := tbl.Acquire(old, 0, 1, txn.Write)
		if err == nil {
			tbl.Release(old)
		}
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	tbl.Release(holder)
	if err := <-done; err != nil {
		t.Fatalf("older requester aborted: %v", err)
	}
}

// buildABDeadlock runs two transactions that acquire keys a and b in
// opposite orders until they genuinely cross (both first locks held), then
// returns each side's second-acquisition error.
func buildABDeadlock(t *testing.T, tbl *lock.Table) (err1, err2 error) {
	t.Helper()
	var barrier sync.WaitGroup
	barrier.Add(2)
	var wg sync.WaitGroup
	wg.Add(2)
	run := func(thread int, id uint64, first, second uint64, out *error) {
		defer wg.Done()
		var f lock.Freelist
		r1 := f.Get(id, id, thread)
		if _, err := tbl.Acquire(r1, 0, first, txn.Write); err != nil {
			barrier.Done()
			*out = err
			return
		}
		barrier.Done()
		barrier.Wait() // both hold their first lock: a cycle is inevitable
		r2 := f.Get(id, id, thread)
		_, err := tbl.Acquire(r2, 0, second, txn.Write)
		*out = err
		if err == nil {
			tbl.Release(r2)
		}
		tbl.Release(r1)
	}
	go run(0, 10, 1, 2, &err1)
	go run(1, 20, 2, 1, &err2)
	waitDone(t, &wg, 5*time.Second)
	return err1, err2
}

func waitDone(t *testing.T, wg *sync.WaitGroup, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("deadlock was not resolved within timeout")
	}
}

func TestWaitForGraphResolvesDeadlock(t *testing.T) {
	tbl := lock.NewTable(16, NewWaitForGraph(2))
	err1, err2 := buildABDeadlock(t, tbl)
	aborts := 0
	for _, err := range []error{err1, err2} {
		switch {
		case err == nil:
		case errors.Is(err, txn.ErrAborted):
			aborts++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if aborts == 0 {
		t.Fatal("A/B deadlock resolved with zero aborts")
	}
}

func TestDreadlocksResolvesDeadlock(t *testing.T) {
	tbl := lock.NewTable(16, NewDreadlocks(2))
	err1, err2 := buildABDeadlock(t, tbl)
	aborts := 0
	for _, err := range []error{err1, err2} {
		switch {
		case err == nil:
		case errors.Is(err, txn.ErrAborted):
			aborts++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if aborts == 0 {
		t.Fatal("A/B deadlock resolved with zero aborts")
	}
}

func TestWaitDieResolvesDeadlock(t *testing.T) {
	tbl := lock.NewTable(16, WaitDie{})
	err1, err2 := buildABDeadlock(t, tbl)
	if err1 == nil && err2 == nil {
		t.Fatal("wait-die allowed both sides to proceed")
	}
}

// Ordered acquisition under the Block handler must never deadlock: a
// stress run over a tiny key space completes with zero aborts.
func TestBlockOrderedAcquisitionNeverDeadlocks(t *testing.T) {
	tbl := lock.NewTable(64, Block{})
	const workers, per, keys = 8, 300, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var f lock.Freelist
			for i := 0; i < per; i++ {
				// Pick 3 distinct keys, acquire in sorted order.
				ks := rng.Perm(keys)[:3]
				sort.Ints(ks)
				reqs := make([]*lock.Request, 0, 3)
				for _, k := range ks {
					r := f.Get(uint64(w*per+i), uint64(w*per+i), w)
					if _, err := tbl.Acquire(r, 0, uint64(k), txn.Write); err != nil {
						t.Errorf("Block handler aborted: %v", err)
						return
					}
					reqs = append(reqs, r)
				}
				for j := len(reqs) - 1; j >= 0; j-- {
					tbl.Release(reqs[j])
					f.Put(reqs[j])
				}
			}
		}(w)
	}
	waitDone(t, &wg, 30*time.Second)
}

// Multi-way deadlock: N transactions form a ring (each holds key i, wants
// key (i+1) mod N). Every handler must resolve it.
func TestRingDeadlockAllHandlers(t *testing.T) {
	const n = 4
	handlers := []lock.Handler{WaitDie{}, NewWaitForGraph(n), NewDreadlocks(n)}
	for _, h := range handlers {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			tbl := lock.NewTable(16, h)
			var barrier, wg sync.WaitGroup
			barrier.Add(n)
			wg.Add(n)
			completed := make([]bool, n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					var f lock.Freelist
					id := uint64(100 + i)
					r1 := f.Get(id, id, i)
					if _, err := tbl.Acquire(r1, 0, uint64(i), txn.Write); err != nil {
						barrier.Done()
						return
					}
					barrier.Done()
					barrier.Wait()
					r2 := f.Get(id, id, i)
					_, err := tbl.Acquire(r2, 0, uint64((i+1)%n), txn.Write)
					if err == nil {
						completed[i] = true
						tbl.Release(r2)
					}
					tbl.Release(r1)
				}(i)
			}
			waitDone(t, &wg, 10*time.Second)
			// At least one member of the ring must have been sacrificed,
			// and at least one must eventually complete... completion of
			// survivors happens only if the victim's locks were released,
			// which waitDone already proves (no hang).
			aborted := 0
			for _, ok := range completed {
				if !ok {
					aborted++
				}
			}
			if aborted == 0 {
				t.Fatal("ring deadlock resolved with zero aborts")
			}
			if aborted == n {
				t.Fatal("every ring member aborted; expected at least one survivor")
			}
		})
	}
}

// Dreadlocks digests must be cleared after waits so stale bits do not
// poison later conflict checks (a txn seeing its own stale bit would
// self-abort forever).
func TestDreadlocksDigestClearedAfterGrant(t *testing.T) {
	d := NewDreadlocks(2)
	tbl := lock.NewTable(16, d)
	var f lock.Freelist
	holder := f.Get(1, 1, 0)
	if _, err := tbl.Acquire(holder, 0, 1, txn.Write); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var f2 lock.Freelist
		w := f2.Get(2, 2, 1)
		_, err := tbl.Acquire(w, 0, 1, txn.Write)
		if err == nil {
			tbl.Release(w)
		}
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	tbl.Release(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range d.digests {
		if d.digests[i].Load() != 0 {
			t.Fatalf("digest word %d not cleared after grant", i)
		}
	}
}

// The wait-for graph's parked-waiter recheck must catch a cycle formed
// after both sides already decided to wait (the insertion race).
func TestWaitForGraphRecheckCatchesLateCycle(t *testing.T) {
	g := NewWaitForGraph(2)
	g.recheck = 200 * time.Microsecond
	tbl := lock.NewTable(16, g)
	// Build the A/B deadlock repeatedly; with a short recheck every run
	// must terminate.
	for i := 0; i < 20; i++ {
		err1, err2 := buildABDeadlock(t, tbl)
		if err1 == nil && err2 == nil {
			t.Fatal("both sides succeeded")
		}
	}
}

func TestWaitDieNoFalseAbortWithoutConflict(t *testing.T) {
	tbl := lock.NewTable(16, WaitDie{})
	var f lock.Freelist
	// Disjoint keys: no aborts regardless of timestamps.
	for i := 0; i < 100; i++ {
		r := f.Get(uint64(i), uint64(1000-i), 0)
		if _, err := tbl.Acquire(r, 0, uint64(i), txn.Write); err != nil {
			t.Fatal(err)
		}
		tbl.Release(r)
		f.Put(r)
	}
}

// Detection on the conflict path allocates nothing once a thread's
// scratch has grown: the wait-for graph's cycle walk, which OnConflict
// runs under the bucket latch, whether or not it closes a cycle, and a
// Dreadlocks wait that finds itself in a blocker's digest.
func TestDetectionAllocatesNothing(t *testing.T) {
	t.Run("waitfor", func(t *testing.T) {
		g := NewWaitForGraph(3)
		t1 := &lock.Request{TxnID: 1, Thread: 0}
		t2 := &lock.Request{TxnID: 2, Thread: 1}
		t3 := &lock.Request{TxnID: 3, Thread: 2}
		if g.OnConflict(t1, []*lock.Request{t2}) != lock.Wait {
			t.Fatal("1 waiting for 2 closed a cycle")
		}
		cycle := []*lock.Request{t1, t3} // 2 → 1 → 2, past the dead end 3
		if n := testing.AllocsPerRun(100, func() {
			if g.OnConflict(t2, cycle) != lock.Die {
				t.Fatal("2 waiting for 1 and 3 did not close the cycle through 1")
			}
		}); n != 0 {
			t.Errorf("a conflict that closes a cycle allocates %.1f, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if g.OnConflict(t3, []*lock.Request{t1}) != lock.Wait {
				t.Fatal("3 waiting for 1 closed a cycle")
			}
		}); n != 0 {
			t.Errorf("a conflict that closes no cycle allocates %.1f, want 0", n)
		}
	})
	t.Run("dreadlocks", func(t *testing.T) {
		d := NewDreadlocks(2)
		tbl := lock.NewTable(16, d)
		var f lock.Freelist
		holder := f.Get(1, 1, 0)
		if _, err := tbl.Acquire(holder, 0, 7, txn.Write); err != nil {
			t.Fatal(err)
		}
		d.digests[0].Store(1 << 1) // the holder's thread waits, transitively, on thread 1
		waiter := f.Get(2, 2, 1)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := tbl.Acquire(waiter, 0, 7, txn.Write); !errors.Is(err, txn.ErrAborted) {
				t.Fatalf("waiter in its blocker's digest: err = %v, want ErrAborted", err)
			}
		}); n != 0 {
			t.Errorf("a Dreadlocks wait allocates %.1f, want 0", n)
		}
	})
}

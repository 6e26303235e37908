package orthrus

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/txn"
)

// mapTable is the lock table privateTable replaced, kept — code unchanged
// but for the names — as the reference the new one is checked (and
// benchmarked) against: a Go map from key to a pooled queue, looked up
// again at release, with the compatibility check that walks the queue.
type mapTable struct {
	entries map[lockKey]*mapEntry
	pool    []*mapEntry
}

type mapEntry struct {
	head, tail *mapReq
	waiters    int
}

type mapReq struct {
	id         int
	mode       txn.Mode
	granted    bool
	key        lockKey
	prev, next *mapReq
}

func newMapTable() *mapTable { return &mapTable{entries: make(map[lockKey]*mapEntry, 256)} }

func (e *mapEntry) push(r *mapReq) {
	r.prev, r.next = e.tail, nil
	if e.tail != nil {
		e.tail.next = r
	} else {
		e.head = r
	}
	e.tail = r
}

func (e *mapEntry) remove(r *mapReq) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		e.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		e.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

func (e *mapEntry) compatible(mode txn.Mode) bool {
	for cur := e.head; cur != nil; cur = cur.next {
		if cur.mode.Conflicts(mode) {
			return false
		}
	}
	return true
}

func (e *mapEntry) grantPrefix(out []*mapReq) []*mapReq {
	if e.waiters == 0 {
		return out
	}
	var grantedWrite, grantedRead bool
	for cur := e.head; cur != nil; cur = cur.next {
		if cur.granted {
			if cur.mode == txn.Write {
				grantedWrite = true
			} else {
				grantedRead = true
			}
			continue
		}
		if cur.mode == txn.Write {
			if grantedWrite || grantedRead {
				return out
			}
			grantedWrite = true
		} else {
			if grantedWrite {
				return out
			}
			grantedRead = true
		}
		cur.granted = true
		e.waiters--
		out = append(out, cur)
	}
	return out
}

func (t *mapTable) insert(r *mapReq) bool {
	e := t.entries[r.key]
	if e == nil {
		e = t.getEntry()
		t.entries[r.key] = e
	}
	if e.compatible(r.mode) {
		r.granted = true
		e.push(r)
		return true
	}
	r.granted = false
	e.push(r)
	e.waiters++
	return false
}

func (t *mapTable) release(r *mapReq, out []*mapReq) []*mapReq {
	e := t.entries[r.key]
	e.remove(r)
	out = e.grantPrefix(out)
	if e.head == nil {
		delete(t.entries, r.key)
		t.putEntry(e)
	}
	return out
}

func (t *mapTable) getEntry() *mapEntry {
	if n := len(t.pool); n > 0 {
		e := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return e
	}
	return &mapEntry{}
}

func (t *mapTable) putEntry(e *mapEntry) {
	e.head, e.tail, e.waiters = nil, nil, 0
	if len(t.pool) < 64 {
		t.pool = append(t.pool, e)
	}
}

// newLocalReq returns a request of mode on key owned by w, as
// ccThread.acquire fills one in.
func newLocalReq(w *wrapper, mode txn.Mode, key lockKey) *localReq {
	r := &localReq{key: key}
	r.Owner, r.Mode = w, mode
	return r
}

// runLockScript drives the table and the reference through one script and
// fails on the first difference. Each step is two bytes: the first picks
// the action (three in eight release the oldest-but-n granted request, the
// rest insert) and the second the key and mode of an insert, over a key
// space of 24 records and 8 stripes so queues form and the table both
// grows and empties. When the script ends everything left is released,
// grant by grant, and the table must be empty.
func runLockScript(t *testing.T, script []byte) {
	tbl, ref := &privateTable{}, newMapTable()
	var (
		reqs    []*localReq // by id, each with its own wrapper as owner
		owners  []*wrapper
		refs    []*mapReq
		granted []int // ids holding a lock, oldest grant first
		out     []*wrapper
		refOut  []*mapReq
	)
	release := func(i int) {
		id := granted[i]
		granted = slices.Delete(granted, i, i+1)
		out = tbl.release(reqs[id], out[:0])
		refOut = ref.release(refs[id], refOut[:0])
		if len(out) != len(refOut) {
			t.Fatalf("release of %d granted %d requests, reference granted %d", id, len(out), len(refOut))
		}
		for j, g := range out {
			gid := slices.Index(owners, g)
			if want := refOut[j].id; gid != want {
				t.Fatalf("release of %d: grant %d went to request %d, reference granted %d", id, j, gid, want)
			}
			if !reqs[gid].Granted {
				t.Fatalf("release of %d returned request %d without granting it", id, gid)
			}
			granted = append(granted, gid)
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		act, arg := script[i], script[i+1]
		if act&7 < 3 && len(granted) > 0 {
			release(int(act>>3) % len(granted))
			continue
		}
		key := lockKey{Key: uint64(arg&31) * 8}
		if arg&31 >= 24 {
			key.Key |= txn.StripeFlag
		}
		mode := txn.Read
		if arg&32 != 0 {
			mode = txn.Write
		}
		id := len(reqs)
		owners = append(owners, &wrapper{})
		reqs = append(reqs, newLocalReq(owners[id], mode, key))
		refs = append(refs, &mapReq{id: id, mode: mode, key: key})
		got, want := tbl.insert(reqs[id]), ref.insert(refs[id])
		if got != want {
			t.Fatalf("insert %d (%v %v): granted=%v, reference %v", id, mode, key, got, want)
		}
		if got {
			granted = append(granted, id)
		}
		if tbl.Len() != len(ref.entries) {
			t.Fatalf("after insert %d: %d live keys, reference %d", id, tbl.Len(), len(ref.entries))
		}
	}
	for len(granted) > 0 {
		release(0)
	}
	if tbl.Len() != 0 || len(ref.entries) != 0 {
		t.Fatalf("%d live keys after the last release (reference %d)", tbl.Len(), len(ref.entries))
	}
	for id, r := range reqs {
		if !r.Granted || !refs[id].granted {
			t.Fatalf("request %d was never granted (reference: %v)", id, refs[id].granted)
		}
	}
}

// The open-addressing table and the O(1) compatibility rule against the
// map and the queue walk: same immediate grants, same release-time grant
// order, same population, on random scripts.
func TestLockTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(script)
		runLockScript(t, script)
	}
}

func FuzzLockTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 32, 7, 32, 7, 0, 0, 0, 0, 0}) // W W R on one key, then two releases
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(runLockScript)
}

// Requests stay linked by address while the table doubles under them and
// while deletions shift their key's slot: a queue built on one key must
// survive hundreds of other keys arriving and leaving.
func TestLockTableGrowsUnderQueuedRequests(t *testing.T) {
	tbl := &privateTable{}
	hot := make([]localReq, 8)
	for i := range hot {
		hot[i] = *newLocalReq(&wrapper{}, txn.Write, lockKey{Key: 5})
		if got := tbl.insert(&hot[i]); got != (i == 0) {
			t.Fatalf("writer %d on the hot key: granted=%v", i, got)
		}
	}
	crowd := make([]localReq, 500)
	for i := range crowd {
		crowd[i] = *newLocalReq(nil, txn.Read, lockKey{Key: uint64(i+1) * 8})
		if !tbl.insert(&crowd[i]) {
			t.Fatalf("uncontended read %d refused", i)
		}
	}
	var out []*wrapper
	for i := range hot {
		if i%2 == 1 {
			// Shrink the crowd between hot releases, so the hot key's
			// slot is shifted as well as rehashed.
			for j := i * 50; j < (i+1)*50; j++ {
				tbl.release(&crowd[j], nil)
			}
		}
		out = tbl.release(&hot[i], out[:0])
		if i+1 < len(hot) {
			if len(out) != 1 || out[0] != hot[i+1].Owner {
				t.Fatalf("release of writer %d granted %v, want writer %d", i, out, i+1)
			}
		} else if len(out) != 0 {
			t.Fatalf("last writer's release granted %v", out)
		}
	}
	if want := 500 - 4*50; tbl.Len() != want {
		t.Fatalf("%d live keys, want %d", tbl.Len(), want)
	}
}

// One transaction's worth of uncontended locks, taken and dropped, touches
// the allocator only until the table has seen its high-water mark.
func TestLockTableSteadyStateAllocatesNothing(t *testing.T) {
	tbl := &privateTable{}
	reqs := make([]localReq, 10)
	for i := range reqs {
		reqs[i] = *newLocalReq(nil, txn.Write, lockKey{Key: uint64(i) * 8})
	}
	var out []*wrapper
	cycle := func() {
		for i := range reqs {
			tbl.insert(&reqs[i])
		}
		for i := range reqs {
			out = tbl.release(&reqs[i], out[:0])
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocations per ten-lock transaction, want 0", n)
	}
}

// BenchmarkLockTable prices one lock (acquire + release) on the table and
// on the map it replaced, in the two regimes the system benchmark has:
// ten uncontended keys per transaction (uniform_rmw, and most of hot_rmw),
// and a 32-deep queue of writers on one key, each granted by the release
// ahead of it (hot_rmw's hot records).
func BenchmarkLockTable(b *testing.B) {
	const txnKeys, depth = 10, 32
	b.Run("table/uncontended", func(b *testing.B) {
		tbl := &privateTable{}
		reqs := make([]localReq, txnKeys)
		var out []*wrapper
		for n := 0; n < b.N; n += txnKeys {
			for i := range reqs {
				reqs[i].Mode, reqs[i].key = txn.Write, lockKey{Key: uint64(n+i) * 8}
				tbl.insert(&reqs[i])
			}
			for i := range reqs {
				out = tbl.release(&reqs[i], out[:0])
			}
		}
	})
	b.Run("map/uncontended", func(b *testing.B) {
		tbl := newMapTable()
		reqs := make([]mapReq, txnKeys)
		var out []*mapReq
		for n := 0; n < b.N; n += txnKeys {
			for i := range reqs {
				reqs[i].mode, reqs[i].key = txn.Write, lockKey{Key: uint64(n+i) * 8}
				tbl.insert(&reqs[i])
			}
			for i := range reqs {
				out = tbl.release(&reqs[i], out[:0])
			}
		}
	})
	b.Run("table/queue32", func(b *testing.B) {
		tbl := &privateTable{}
		reqs := make([]localReq, depth)
		var out []*wrapper
		for i := range reqs {
			reqs[i].Mode, reqs[i].key = txn.Write, lockKey{Key: 5}
			tbl.insert(&reqs[i])
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			r := &reqs[n%depth] // the head: granted, oldest
			out = tbl.release(r, out[:0])
			tbl.insert(r)
		}
	})
	b.Run("map/queue32", func(b *testing.B) {
		tbl := newMapTable()
		reqs := make([]mapReq, depth)
		var out []*mapReq
		for i := range reqs {
			reqs[i].mode, reqs[i].key = txn.Write, lockKey{Key: 5}
			tbl.insert(&reqs[i])
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			r := &reqs[n%depth]
			out = tbl.release(r, out[:0])
			tbl.insert(r)
		}
	})
}

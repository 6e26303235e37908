package storage

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestFixedTableGetInsert(t *testing.T) {
	tbl := NewFixedTable("t", 10, 16)
	if tbl.Len() != 10 || tbl.RecordSize() != 16 || tbl.Name() != "t" {
		t.Fatal("metadata mismatch")
	}
	val := bytes.Repeat([]byte{0xAB}, 16)
	if err := tbl.Insert(3, val); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Get(3); !bytes.Equal(got, val) {
		t.Fatalf("Get(3) = %x", got)
	}
	if got := tbl.Get(2); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("untouched row not zero: %x", got)
	}
	if tbl.Get(10) != nil {
		t.Fatal("out-of-range Get returned non-nil")
	}
	if err := tbl.Insert(10, val); err == nil {
		t.Fatal("out-of-range Insert succeeded")
	}
}

func TestFixedTableRowsDoNotAlias(t *testing.T) {
	tbl := NewFixedTable("t", 4, 8)
	r0, r1 := tbl.Get(0), tbl.Get(1)
	copy(r0, bytes.Repeat([]byte{1}, 8))
	if r1[0] != 0 {
		t.Fatal("writing row 0 leaked into row 1")
	}
	// Appending to a row slice must not clobber the neighbor (capacity is
	// clamped to the record boundary).
	_ = append(r0[:0], bytes.Repeat([]byte{9}, 9)...)
	if tbl.Get(1)[0] != 0 {
		t.Fatal("append past record size overwrote next row")
	}
}

func TestGrowTableBasics(t *testing.T) {
	tbl := NewGrowTable("g", 8, 100)
	if tbl.Get(42) != nil {
		t.Fatal("Get on empty table returned non-nil")
	}
	if err := tbl.Insert(42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := tbl.Get(42)
	if len(got) != 8 || !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatalf("Get = %q", got)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if err := tbl.Insert(1, make([]byte, 9)); err == nil {
		t.Fatal("oversized insert succeeded")
	}
}

func TestGrowTableConcurrentInserts(t *testing.T) {
	tbl := NewGrowTable("g", 8, 0)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				PutU64(buf, 0, key)
				if err := tbl.Insert(key, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", tbl.Len(), workers*per)
	}
	for key := uint64(0); key < workers*per; key++ {
		if got := GetU64(tbl.Get(key), 0); got != key {
			t.Fatalf("key %d holds %d", key, got)
		}
	}
}

func TestDBRegistry(t *testing.T) {
	db := NewDB()
	a := db.Create(Layout{Name: "a", NumRecords: 4, RecordSize: 8})
	b := db.Create(Layout{Name: "b", NumRecords: 4, RecordSize: 8, Growable: true})
	if db.NumTables() != 2 {
		t.Fatalf("NumTables = %d", db.NumTables())
	}
	if db.TableID("a") != a || db.TableID("b") != b {
		t.Fatal("TableID mismatch")
	}
	if db.TableID("missing") != -1 {
		t.Fatal("missing table id != -1")
	}
	if _, ok := db.Table(a).(*FixedTable); !ok {
		t.Fatal("table a is not fixed")
	}
	if _, ok := db.Table(b).(*GrowTable); !ok {
		t.Fatal("table b is not growable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Create did not panic")
		}
	}()
	db.Create(Layout{Name: "a", NumRecords: 1, RecordSize: 1})
}

func TestFieldHelpers(t *testing.T) {
	rec := make([]byte, 24)
	PutU64(rec, 0, 7)
	PutI64(rec, 8, -5)
	if GetU64(rec, 0) != 7 || GetI64(rec, 8) != -5 {
		t.Fatal("round trip failed")
	}
	if AddU64(rec, 0, 3) != 10 || GetU64(rec, 0) != 10 {
		t.Fatal("AddU64")
	}
	if AddI64(rec, 8, -5) != -10 || GetI64(rec, 8) != -10 {
		t.Fatal("AddI64")
	}
	// Property: Put then Get is identity for any value/offset.
	f := func(v uint64, offRaw uint8) bool {
		off := int(offRaw) % 16
		PutU64(rec, off, v)
		return GetU64(rec, off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolBuffersDistinct(t *testing.T) {
	p := NewPool(8)
	a, b := p.Get(), p.Get()
	copy(a, "aaaaaaaa")
	if b[0] != 0 {
		t.Fatal("pool buffers alias")
	}
	if len(a) != 8 || len(b) != 8 || cap(a) != 8 {
		t.Fatal("wrong buffer size")
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(16)
	const workers, per = 8, 2000
	bufs := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf := p.Get()
				PutU64(buf, 0, uint64(w))
				PutU64(buf, 8, uint64(i))
				bufs[w] = append(bufs[w], buf)
			}
		}(w)
	}
	wg.Wait()
	for w := range bufs {
		for i, buf := range bufs[w] {
			if GetU64(buf, 0) != uint64(w) || GetU64(buf, 8) != uint64(i) {
				t.Fatalf("buffer (%d,%d) corrupted", w, i)
			}
		}
	}
}

// TestSecondaryIndexAddLookup is a deliberate Lookup (not Each) caller:
// it pins Lookup's copy contract, which only holds value because the
// returned slice is the caller's to keep. All hot-path readers use the
// allocation-free Each instead.
func TestSecondaryIndexAddLookup(t *testing.T) {
	ix := NewSecondaryIndex()
	for _, pk := range []uint64{30, 10, 20, 10} { // dup 10 ignored
		ix.Add(5, pk)
	}
	list, _ := ix.Lookup(5)
	want := []uint64{10, 20, 30}
	if len(list) != 3 {
		t.Fatalf("Lookup = %v", list)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("Lookup = %v, want %v", list, want)
		}
	}
	if ix.Keys() != 1 {
		t.Fatalf("Keys = %d", ix.Keys())
	}
	// Lookup returns a copy: mutating it must not corrupt the index.
	list[0] = 999
	list2, _ := ix.Lookup(5)
	if list2[0] != 10 {
		t.Fatal("Lookup returned aliasing slice")
	}
}

func TestSecondaryIndexMiddle(t *testing.T) {
	ix := NewSecondaryIndex()
	if _, _, ok := ix.Middle(1); ok {
		t.Fatal("Middle on empty key returned ok")
	}
	ix.Add(1, 100)
	if mid, _, ok := ix.Middle(1); !ok || mid != 100 {
		t.Fatalf("Middle single = %d,%v", mid, ok)
	}
	ix.Add(1, 200)
	ix.Add(1, 300)
	if mid, _, _ := ix.Middle(1); mid != 200 {
		t.Fatalf("Middle of 3 = %d, want 200", mid)
	}
	ix.Add(1, 400)
	if mid, _, _ := ix.Middle(1); mid != 300 {
		t.Fatalf("Middle of 4 = %d, want 300", mid)
	}
}

func TestSecondaryIndexVersionAndRemove(t *testing.T) {
	ix := NewSecondaryIndex()
	v0 := ix.Version()
	ix.Add(7, 1)
	if ix.Version() == v0 {
		t.Fatal("Add did not bump version")
	}
	_, v1, _ := ix.Middle(7)
	ix.Remove(7, 1)
	if ix.Version() == v1 {
		t.Fatal("Remove did not bump version")
	}
	left := 0
	ix.Each(7, func(uint64) bool { left++; return true })
	if left != 0 {
		t.Fatalf("after remove: %d postings left", left)
	}
	ix.Remove(7, 99) // no-op removal of absent key must not bump
	v2 := ix.Version()
	ix.Remove(7, 99)
	if ix.Version() != v2 {
		t.Fatal("no-op Remove bumped version")
	}
}

// Property: posting lists stay sorted and duplicate-free under any Add
// sequence.
func TestSecondaryIndexSortedProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		ix := NewSecondaryIndex()
		seen := map[uint64]bool{}
		for _, k := range keys {
			ix.Add(0, uint64(k))
			seen[uint64(k)] = true
		}
		n, prev, sorted := 0, uint64(0), true
		ix.Each(0, func(p uint64) bool {
			if n > 0 && prev >= p {
				sorted = false
				return false
			}
			n, prev = n+1, p
			return true
		})
		return sorted && n == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// NewFixedTable must refuse shapes whose arena it cannot represent: a
// zero row count (Get would return nil for every key) and a rows×size
// product that overflows, which would silently allocate a wrong-sized
// arena and misbehave at the table boundary.
func TestFixedTableShapeGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero rows", func() { NewFixedTable("z", 0, 8) })
	mustPanic("zero record size", func() { NewFixedTable("z", 8, 0) })
	mustPanic("negative record size", func() { NewFixedTable("z", 8, -1) })
	mustPanic("overflow", func() { NewFixedTable("z", math.MaxUint64/4, 8) })
	mustPanic("max rows", func() { NewFixedTable("z", math.MaxUint64, 1) })

	// Boundary behaviour of a legal table is unchanged.
	tbl := NewFixedTable("ok", 4, 8)
	if tbl.Get(3) == nil {
		t.Fatal("last row inaccessible")
	}
	if tbl.Get(4) != nil {
		t.Fatal("out-of-range key returned a record")
	}
}

// The copy-on-write table registry: ids handed out before later Create
// calls must stay valid, and readers racing Register must never observe
// a torn slice.
func TestDBRegistryCopyOnWrite(t *testing.T) {
	db := NewDB()
	first := db.Create(Layout{Name: "a", NumRecords: 4, RecordSize: 8})
	got := db.Table(first)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if db.Table(first) != got {
				t.Error("table id remapped during registration")
				return
			}
		}
	}()
	for i := 0; i < 64; i++ {
		db.Create(Layout{Name: fmt.Sprintf("t%d", i), NumRecords: 4, RecordSize: 8})
	}
	close(stop)
	wg.Wait()
	if db.NumTables() != 65 {
		t.Fatalf("NumTables = %d, want 65", db.NumTables())
	}
}

// --- ordered tables and range scans --------------------------------------

func TestOrderedGrowTableScansInKeyOrder(t *testing.T) {
	tbl := NewOrderedGrowTable("ord", 8, 0)
	// Insert out of order, spread across hash shards.
	keys := []uint64{500, 3, 77, 12, 9001, 64, 65, 4, 1000}
	for _, k := range keys {
		var v [8]byte
		PutU64(v[:], 0, k)
		if err := tbl.Insert(k, v[:]); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	tbl.Scan(4, 1000, func(key uint64, rec []byte) bool {
		if GetU64(rec, 0) != key {
			t.Fatalf("record payload %d under key %d", GetU64(rec, 0), key)
		}
		got = append(got, key)
		return true
	})
	want := []uint64{4, 12, 64, 65, 77, 500}
	if len(got) != len(want) {
		t.Fatalf("scan [4,1000) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan [4,1000) = %v, want %v (out of order)", got, want)
		}
	}
	// Early stop.
	n := 0
	tbl.Scan(0, 10000, func(uint64, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestOrderedGrowTableGapVersions(t *testing.T) {
	tbl := NewOrderedGrowTable("ord", 8, 0)
	v0 := tbl.RangeVersion(0, 100)
	var buf [8]byte
	if err := tbl.Insert(7, buf[:]); err != nil {
		t.Fatal(err)
	}
	v1 := tbl.RangeVersion(0, 100)
	if v1 == v0 {
		t.Fatal("new-key insert did not bump the gap version")
	}
	// Overwriting an existing key cannot create a phantom: no bump.
	if err := tbl.Insert(7, buf[:]); err != nil {
		t.Fatal(err)
	}
	if got := tbl.RangeVersion(0, 100); got != v1 {
		t.Fatalf("overwrite bumped gap version %d -> %d", v1, got)
	}
	if !tbl.ScanProtected() {
		t.Fatal("ordered grow table must be scan-protected")
	}
}

func TestOrderedGrowTableRejectsStripeFlagKeys(t *testing.T) {
	tbl := NewOrderedGrowTable("ord", 8, 0)
	var buf [8]byte
	if err := tbl.Insert(1<<63|5, buf[:]); err == nil {
		t.Fatal("key with bit 63 set accepted on ordered table")
	}
}

func TestUnorderedGrowTableScanPanics(t *testing.T) {
	tbl := NewGrowTable("hist", 8, 0)
	if tbl.ScanProtected() {
		t.Fatal("unordered grow table claims scan protection")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scan on unordered grow table did not panic")
		}
	}()
	tbl.Scan(0, 10, func(uint64, []byte) bool { return true })
}

func TestFixedTableScan(t *testing.T) {
	tbl := NewFixedTable("f", 8, 8)
	for k := uint64(0); k < 8; k++ {
		PutU64(tbl.Get(k), 0, k*10)
	}
	var got []uint64
	tbl.Scan(2, 100, func(key uint64, rec []byte) bool {
		got = append(got, GetU64(rec, 0))
		return true
	})
	if len(got) != 6 || got[0] != 20 || got[5] != 70 {
		t.Fatalf("fixed scan = %v", got)
	}
	if tbl.ScanProtected() {
		t.Fatal("fixed table claims scan protection")
	}
	if tbl.RangeVersion(0, 8) != 0 {
		t.Fatal("fixed table gap version must be 0")
	}
}

func TestSecondaryIndexEachIsAllocationFree(t *testing.T) {
	ix := NewSecondaryIndex()
	for i := uint64(0); i < 64; i++ {
		ix.Add(9, i*3)
	}
	var sum uint64
	allocs := testing.AllocsPerRun(100, func() {
		sum = 0
		ix.Each(9, func(p uint64) bool { sum += p; return true })
	})
	if allocs != 0 {
		t.Fatalf("Each allocates %.1f per call", allocs)
	}
	if want := uint64(63 * 64 / 2 * 3); sum != want {
		t.Fatalf("Each sum = %d, want %d", sum, want)
	}
	// Early stop and version agreement with Lookup.
	n := 0
	v := ix.Each(9, func(uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	if _, lv := ix.Lookup(9); lv != v {
		t.Fatalf("Each version %d != Lookup version %d", v, lv)
	}
}

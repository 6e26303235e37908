// Package storage implements the main-memory storage substrate shared by
// every engine in this repository (paper §3: "ORTHRUS assumes that the
// working set of data accessed by transactions can be held in main
// memory").
//
// Two table layouts are provided:
//
//   - FixedTable: a dense, pre-allocated arena of fixed-size records keyed
//     by row number. This is the layout used by the YCSB-style experiments
//     (a single table of N records of S bytes each) and by the static
//     TPC-C tables. All record memory is allocated once at load time, so
//     steady-state transaction processing never touches the Go allocator —
//     the analogue of the paper's "never interacts with a memory
//     allocator" discipline for its 2PL baseline.
//
//   - GrowTable: a sharded hash table supporting inserts, used for the
//     TPC-C tables that grow during the run (ORDER, NEW-ORDER, ORDER-LINE,
//     HISTORY). A growable table created with Layout.Ordered additionally
//     maintains a sorted key list and a gap-version counter per shard, so
//     range scans iterate in ascending key order and every insert of a
//     new key bumps a version a reconnaissance reader can validate
//     against. Ordered tables are scan-protected: engines guard inserts
//     with stripe (gap) locks so a concurrent range scan cannot observe a
//     phantom — this retires the original prototype scope restriction
//     (the paper excludes phantom protection; see README.md "Range scans
//     and phantom protection"). Unordered growable tables (HISTORY) keep
//     the cheaper insert path and cannot be scanned.
//
// Record payloads are raw byte slices. Fixed-width integer fields inside a
// record are read and written with the binary helpers below; every engine
// uses the same helpers so that the per-access CPU work is identical across
// systems, keeping the comparisons honest.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Layout describes one table's shape.
type Layout struct {
	Name       string
	NumRecords uint64 // FixedTable capacity (rows 0..NumRecords-1)
	RecordSize int    // payload bytes per record
	Growable   bool   // true → GrowTable (insert-heavy TPC-C tables)
	// Ordered makes a growable table scannable and scan-protected: each
	// shard keeps its keys sorted and a gap-version counter bumped on
	// every new-key insert. Ignored for fixed tables (dense row spaces
	// are ordered by construction).
	Ordered bool
	// Versioned gives each record a small version chain of committed
	// images stamped with commit LSNs, enabling lock-free snapshot reads
	// (see VersionedTable). Only fixed layouts can be versioned — a
	// growable table's key population changes under shard latches the
	// version protocol does not cover — so Versioned+Growable panics.
	Versioned bool
}

// Table is the access interface shared by both layouts.
type Table interface {
	// Name returns the table name.
	Name() string
	// Get returns the record payload for key, or nil if absent.
	// The returned slice aliases table memory; callers synchronize via the
	// engine's concurrency control.
	Get(key uint64) []byte
	// Insert adds a record payload for key. For FixedTable keys must be
	// in-range (it overwrites); GrowTable allocates. Insert is internally
	// thread-safe for GrowTable.
	Insert(key uint64, value []byte) error
	// Len returns the number of records.
	Len() uint64
	// RecordSize returns the fixed payload size.
	RecordSize() int
	// Scan invokes fn for each present record with key in the half-open
	// range [lo, hi), in ascending key order, stopping early when fn
	// returns false. No internal lock is held while fn runs, so fn may
	// block (e.g. on a record lock). Panics on an unordered growable
	// table — those cannot be iterated in key order.
	Scan(lo, hi uint64, fn func(key uint64, rec []byte) bool)
	// ScanProtected reports whether inserts can add new keys at run time,
	// i.e. whether range scans over this table need gap (stripe) locking
	// against phantoms. True only for ordered growable tables.
	ScanProtected() bool
	// RangeVersion folds the gap-version counters that could cover keys
	// in [lo, hi) into one value: if it is unchanged between two reads,
	// no insert added a key that could have landed in the range. It is
	// conservative — inserts outside the range may also change it — and
	// constant 0 for tables whose key population cannot change.
	RangeVersion(lo, hi uint64) uint64
}

// FixedTable is a dense arena of NumRecords fixed-size records.
type FixedTable struct {
	name    string
	arena   []byte
	n       uint64
	recSize int
}

// NewFixedTable allocates the arena eagerly. It panics on a zero row
// count or when rows·size overflows the address space — silently
// allocating a wrong-sized arena would make Get misbehave at the table
// boundary.
func NewFixedTable(name string, numRecords uint64, recordSize int) *FixedTable {
	if recordSize <= 0 {
		panic("storage: recordSize must be positive")
	}
	if numRecords == 0 {
		panic("storage: numRecords must be positive (use Growable for empty tables)")
	}
	if numRecords > uint64(math.MaxInt)/uint64(recordSize) {
		panic(fmt.Sprintf("storage: table %s size %d×%d overflows", name, numRecords, recordSize))
	}
	return &FixedTable{
		name:    name,
		arena:   make([]byte, numRecords*uint64(recordSize)),
		n:       numRecords,
		recSize: recordSize,
	}
}

// Name implements Table.
func (t *FixedTable) Name() string { return t.name }

// Get implements Table. Out-of-range keys return nil.
func (t *FixedTable) Get(key uint64) []byte {
	if key >= t.n {
		return nil
	}
	off := key * uint64(t.recSize)
	return t.arena[off : off+uint64(t.recSize) : off+uint64(t.recSize)]
}

// Insert implements Table by overwriting the row in place.
func (t *FixedTable) Insert(key uint64, value []byte) error {
	dst := t.Get(key)
	if dst == nil {
		return fmt.Errorf("storage: key %d out of range for table %s (n=%d)", key, t.name, t.n)
	}
	copy(dst, value)
	return nil
}

// Len implements Table.
func (t *FixedTable) Len() uint64 { return t.n }

// RecordSize implements Table.
func (t *FixedTable) RecordSize() int { return t.recSize }

// Scan implements Table: a dense row space is ordered by construction,
// so the iteration is a straight walk over the arena.
func (t *FixedTable) Scan(lo, hi uint64, fn func(key uint64, rec []byte) bool) {
	if hi > t.n {
		hi = t.n
	}
	for key := lo; key < hi; key++ {
		if !fn(key, t.Get(key)) {
			return
		}
	}
}

// ScanProtected implements Table: a fixed table's key population never
// changes, so scans cannot observe phantoms.
func (t *FixedTable) ScanProtected() bool { return false }

// RangeVersion implements Table.
func (t *FixedTable) RangeVersion(lo, hi uint64) uint64 { return 0 }

// growShards is the shard count for GrowTable. Power of two.
const growShards = 64

type growShard struct {
	mu sync.Mutex
	m  map[uint64][]byte
	// keys is the shard's sorted key list and version its gap counter,
	// maintained only for ordered tables: version increments on every
	// insert that adds a new key (overwrites leave it alone — they cannot
	// create phantoms). The counter is written under the shard mutex —
	// keeping insert-side bumps local to the shard's cache line instead
	// of contending a table-global word — but read with atomic loads so
	// RangeVersion's fold over all shards never takes a latch.
	keys    []uint64
	version atomic.Uint64
}

// GrowTable is a sharded hash table for insert-heavy tables.
type GrowTable struct {
	name    string
	recSize int
	ordered bool
	shards  [growShards]growShard
	pool    *Pool
}

// NewGrowTable returns an empty growable table. sizeHint pre-sizes shards.
func NewGrowTable(name string, recordSize int, sizeHint uint64) *GrowTable {
	t := &GrowTable{name: name, recSize: recordSize, pool: NewPool(recordSize)}
	per := int(sizeHint / growShards)
	for i := range t.shards {
		t.shards[i].m = make(map[uint64][]byte, per)
	}
	return t
}

// NewOrderedGrowTable returns an empty growable table that additionally
// keeps per-shard sorted key lists and gap versions, making it scannable
// in key order and scan-protected (engines stripe-lock its inserts).
func NewOrderedGrowTable(name string, recordSize int, sizeHint uint64) *GrowTable {
	t := NewGrowTable(name, recordSize, sizeHint)
	t.ordered = true
	return t
}

func (t *GrowTable) shard(key uint64) *growShard {
	// Fibonacci hash spreads sequential TPC-C order ids across shards.
	return &t.shards[(key*0x9E3779B97F4A7C15)>>(64-6)]
}

// Name implements Table.
func (t *GrowTable) Name() string { return t.name }

// Get implements Table.
func (t *GrowTable) Get(key uint64) []byte {
	s := t.shard(key)
	s.mu.Lock()
	v := s.m[key]
	s.mu.Unlock()
	return v
}

// Insert implements Table. The value is copied into pool-owned memory.
// On an ordered table a new key is spliced into the shard's sorted key
// list and bumps the shard's gap version; keys with bit 63 set are
// rejected — that bit marks stripe lock keys (txn.StripeFlag), which must
// never collide with record keys.
func (t *GrowTable) Insert(key uint64, value []byte) error {
	if len(value) > t.recSize {
		return fmt.Errorf("storage: value size %d exceeds record size %d for table %s", len(value), t.recSize, t.name)
	}
	if t.ordered && key>>63 != 0 {
		return fmt.Errorf("storage: key %d has bit 63 set (reserved for stripe locks) on ordered table %s", key, t.name)
	}
	buf := t.pool.Get()
	copy(buf, value)
	s := t.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && t.ordered {
		i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
		s.version.Store(s.version.Load() + 1) // exclusive under s.mu
	}
	s.m[key] = buf
	s.mu.Unlock()
	return nil
}

// Len implements Table.
func (t *GrowTable) Len() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += uint64(len(s.m))
		s.mu.Unlock()
	}
	return n
}

// RecordSize implements Table.
func (t *GrowTable) RecordSize() int { return t.recSize }

// scanPair is one gathered (key, record) pair awaiting the merge sort.
type scanPair struct {
	key uint64
	rec []byte
}

// Scan implements Table. Keys are hash-sharded, so an in-order iteration
// first gathers the matching (key, record) pairs from every shard — each
// under its own latch, record slices are stable pool memory — then sorts
// and walks them with no lock held, so fn may block (on a record lock,
// say) without stalling concurrent inserts to unrelated keys.
func (t *GrowTable) Scan(lo, hi uint64, fn func(key uint64, rec []byte) bool) {
	if !t.ordered {
		panic("storage: Scan on unordered growable table " + t.name)
	}
	if hi <= lo {
		return
	}
	var pairs []scanPair
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		j := sort.Search(len(s.keys), func(j int) bool { return s.keys[j] >= lo })
		for ; j < len(s.keys) && s.keys[j] < hi; j++ {
			pairs = append(pairs, scanPair{key: s.keys[j], rec: s.m[s.keys[j]]})
		}
		s.mu.Unlock()
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].key < pairs[b].key })
	for _, p := range pairs {
		if !fn(p.key, p.rec) {
			return
		}
	}
}

// ScanProtected implements Table.
func (t *GrowTable) ScanProtected() bool { return t.ordered }

// RangeVersion implements Table. Hash sharding means any shard could hold
// a key in [lo, hi), so the fold covers every shard — conservative by
// design (see the interface comment). The fold is latch-free: 64 atomic
// loads, no shard mutex traffic on the reconnaissance path.
func (t *GrowTable) RangeVersion(lo, hi uint64) uint64 {
	if !t.ordered {
		return 0
	}
	var v uint64
	for i := range t.shards {
		v += t.shards[i].version.Load()
	}
	return v
}

// DB is a named collection of tables plus secondary indexes. The table
// slice is copy-on-write behind an atomic pointer: Table sits on every
// engine's per-record hot path (ten lookups per YCSB transaction), where
// even an uncontended RWMutex read-lock is a measurable share of a
// microsecond-scale transaction.
type DB struct {
	tables  atomic.Pointer[[]Table]
	mu      sync.Mutex // guards writers and the name/index maps
	byName  map[string]int
	indexes map[string]*SecondaryIndex
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{byName: make(map[string]int), indexes: make(map[string]*SecondaryIndex)}
	db.tables.Store(&[]Table{})
	return db
}

// Create builds a table from its layout and registers it, returning its id.
func (db *DB) Create(l Layout) int {
	var t Table
	switch {
	case l.Versioned && l.Growable:
		panic(fmt.Sprintf("storage: table %s is Versioned+Growable; version chains require a fixed layout", l.Name))
	case l.Versioned:
		t = NewVersionedTable(l.Name, l.NumRecords, l.RecordSize)
	case l.Growable && l.Ordered:
		t = NewOrderedGrowTable(l.Name, l.RecordSize, l.NumRecords)
	case l.Growable:
		t = NewGrowTable(l.Name, l.RecordSize, l.NumRecords)
	default:
		t = NewFixedTable(l.Name, l.NumRecords, l.RecordSize)
	}
	return db.Register(t)
}

// Register adds an existing table and returns its id.
func (db *DB) Register(t Table) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.byName[t.Name()]; dup {
		panic("storage: duplicate table " + t.Name())
	}
	old := *db.tables.Load()
	tables := make([]Table, len(old)+1)
	copy(tables, old)
	id := len(old)
	tables[id] = t
	db.tables.Store(&tables)
	db.byName[t.Name()] = id
	return id
}

// Table returns the table with the given id.
func (db *DB) Table(id int) Table {
	return (*db.tables.Load())[id]
}

// TableID returns the id for name, or -1.
func (db *DB) TableID(name string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if id, ok := db.byName[name]; ok {
		return id
	}
	return -1
}

// NumTables returns the number of registered tables.
func (db *DB) NumTables() int {
	return len(*db.tables.Load())
}

// AddIndex registers a named secondary index.
func (db *DB) AddIndex(name string, idx *SecondaryIndex) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.indexes[name] = idx
}

// Index returns a named secondary index, or nil.
func (db *DB) Index(name string) *SecondaryIndex {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.indexes[name]
}

// --- fixed-width field helpers -----------------------------------------

// GetU64 reads a little-endian uint64 at byte offset off.
func GetU64(rec []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(rec[off : off+8])
}

// PutU64 writes a little-endian uint64 at byte offset off.
func PutU64(rec []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(rec[off:off+8], v)
}

// GetI64 reads a little-endian int64 at byte offset off.
func GetI64(rec []byte, off int) int64 { return int64(GetU64(rec, off)) }

// PutI64 writes a little-endian int64 at byte offset off.
func PutI64(rec []byte, off int, v int64) { PutU64(rec, off, uint64(v)) }

// AddU64 adds delta to the uint64 at off and returns the new value.
// Callers hold the record's logical lock; no atomicity is implied.
func AddU64(rec []byte, off int, delta uint64) uint64 {
	v := GetU64(rec, off) + delta
	PutU64(rec, off, v)
	return v
}

// AddI64 adds delta to the int64 at off and returns the new value.
func AddI64(rec []byte, off int, delta int64) int64 {
	v := GetI64(rec, off) + delta
	PutI64(rec, off, v)
	return v
}

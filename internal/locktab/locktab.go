// Package locktab is every lock table in the repo: an index from record
// key to that record's request Queue, and the queue's grant rule. ORTHRUS's
// CC threads use one table each with no latch at all; the conventional
// lock manager (internal/lock) uses one per bucket, under the bucket's
// latch. Both get the same structure so that what the paper's comparison
// measures is what it says differs — latches and shared cache lines — and
// not how well one side's hash table was tuned or how its queue grants.
//
// The grant rule. A record's requests queue strictly FIFO, in shared (Read)
// or exclusive (Write) mode. A request is granted when every request ahead
// of it, granted or waiting, is compatible with it, so readers never
// overtake a waiting writer and writers cannot starve. When a request
// leaves, the longest compatible prefix of the queue is granted, and the
// grants are returned to the caller rather than acted on: what a grant
// does — advance a transaction's chain on a CC thread, wake a blocked
// worker once the latch is dropped — is the caller's business.
//
// A Table and its queues have a single owner: whoever holds it (a CC
// thread, or the holder of a latch) is the only one reading or writing
// it, so nothing in here synchronizes. That is what lets a lock be one
// probe: open addressing with linear probing over a power-of-two array
// whose slots carry the hash and the key, so a probe compares them without
// following the entry pointer; the caller hashes the key once (Key.Hash)
// and both the bucket choice and the slot index come from that one value;
// and a request keeps the *Entry it queued on, so releasing it looks
// nothing up — Delete finds the slot again by pointer from the entry's
// stored hash.
//
// Deletion shifts the rest of the probe cluster back (no tombstones), the
// array doubles when half full and never shrinks, and entries are recycled
// through a free list, so the table allocates only while its population is
// reaching a new high-water mark. Entries are separate allocations and
// never move: growth and shifting rearrange slots, and a queued request's
// back-pointer stays valid throughout.
package locktab

import "math/bits"

// Key identifies a record across tables.
type Key struct {
	Table int
	Key   uint64
}

// Hash mixes k into the value Get takes. The high bits index a table's
// slots — one ORTHRUS CC thread only ever sees keys congruent modulo the
// CC thread count, and stripe locks differ from record locks in bit 63,
// so the low bits of the key itself would cluster — and the low
// bits, which the final fold makes depend on the high ones, are left for
// callers to pick a bucket with.
func (k Key) Hash() uint64 {
	h := (k.Key ^ uint64(k.Table)*0xBF58476D1CE4E5B9) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	return h ^ h>>32
}

// Entry is one live key's state: the owner's queue Q plus what the table
// needs to find the slot again. Q is the zero value when Get creates the
// entry, and must be empty of anything the owner still needs at Delete.
type Entry[Q any] struct {
	Q    Q
	hash uint64
	free *Entry[Q] // next on the table's free list
}

type slot[Q any] struct {
	hash uint64
	key  Key
	e    *Entry[Q] // nil: empty slot
}

// minSlots is the array a Table allocates on its first insert: small,
// because a lock manager has tens of thousands of buckets and most hold
// one key at a time; a busier owner's table doubles its way to the size
// its population needs within its first few transactions and stays there.
const minSlots = 4

// Table maps keys to entries. The zero value is an empty table.
type Table[Q any] struct {
	slots []slot[Q]
	shift uint // 64 - log2(len(slots)): a hash's home slot is hash >> shift
	n     int
	free  *Entry[Q]
}

// Len returns the number of live keys.
func (t *Table[Q]) Len() int { return t.n }

// Get returns the entry for k, creating it if k is not in the table. h
// must be k.Hash().
func (t *Table[Q]) Get(k Key, h uint64) *Entry[Q] {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.e == nil {
			e := t.newEntry()
			e.hash = h
			*s = slot[Q]{hash: h, key: k, e: e}
			t.n++
			return e
		}
		if s.hash == h && s.key == k {
			return s.e
		}
	}
}

// Delete removes e's key from the table and recycles e.
func (t *Table[Q]) Delete(e *Entry[Q]) {
	mask := uint64(len(t.slots) - 1)
	i := e.hash >> t.shift
	for t.slots[i].e != e {
		i = (i + 1) & mask
	}
	// Backward-shift: walk the rest of the cluster and pull into the hole
	// every slot whose home is not cyclically inside (hole, slot], which
	// is exactly the set a probe from its home would no longer reach.
	for j := i; ; {
		j = (j + 1) & mask
		s := &t.slots[j]
		if s.e == nil {
			break
		}
		home := s.hash >> t.shift
		if (home-i-1)&mask < (j-i)&mask {
			continue
		}
		t.slots[i] = *s
		i = j
	}
	t.slots[i] = slot[Q]{}
	t.n--
	var zero Q
	e.Q = zero
	e.free = t.free
	t.free = e
}

// newEntry pops the free list, which holds every entry the table ever
// made that is not live — so the total is the population's high-water
// mark.
//
//orthrus:coldpath allocates only while the free list is empty, i.e. while the population reaches a new high-water mark
func (t *Table[Q]) newEntry() *Entry[Q] {
	e := t.free
	if e == nil {
		return new(Entry[Q])
	}
	t.free, e.free = e.free, nil
	return e
}

// resize moves the table into an array of n slots (a power of two; the
// first one is minSlots). Slots carry their hash, so nothing is rehashed
// and no entry is touched.
//
//orthrus:coldpath runs only when the population reaches a new high-water mark; the array never shrinks
func (t *Table[Q]) resize(size int) {
	size = max(size, minSlots)
	old := t.slots
	t.slots = make([]slot[Q], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.e == nil {
			continue
		}
		i := s.hash >> t.shift
		for t.slots[i].e != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

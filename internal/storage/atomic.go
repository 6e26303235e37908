package storage

import (
	"sync/atomic"
	"unsafe"
)

// Atomic field accessors.
//
// OLLP reconnaissance (paper §3.2) reads records without acquiring locks:
// "no locks are acquired during this reconnaissance ... all reads are not
// assumed to be consistent". Transactionally that is fine — the estimate
// is re-validated under locks — but in the Go memory model a plain read
// racing a locked writer is still a data race. Fields that reconnaissance
// can observe (TPC-C's D_NEXT_O_ID, the delivery cursor, C_LAST_ORDER)
// are therefore accessed with the atomic helpers below on both the locked
// writer side and the unlocked reconnaissance side. Aligned atomic loads
// and stores compile to plain MOVs on amd64, so the hot path cost is nil.
//
// Callers must pass 8-byte-aligned offsets into table-arena or pool-backed
// records (all layouts in this repository use multiple-of-8 offsets and
// record sizes, and Go heap allocations of that size are 8-byte aligned).

// AtomicGetU64 atomically reads the uint64 at byte offset off.
func AtomicGetU64(rec []byte, off int) uint64 {
	return atomic.LoadUint64((*uint64)(unsafe.Pointer(&rec[off])))
}

// AtomicPutU64 atomically writes the uint64 at byte offset off.
func AtomicPutU64(rec []byte, off int, v uint64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&rec[off])), v)
}

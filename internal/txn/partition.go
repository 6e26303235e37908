package txn

// PartitionFunc maps a record to its home partition. ORTHRUS routes each
// record's lock to CC thread PartitionFunc % CCThreads, fixed for the
// lifetime of an engine. Partitioned-store uses it to place data.
// Workload generators use the same function so the partition-locality
// experiments (Figures 5-7, Appendix A single/dual/random configurations)
// can constrain each transaction's footprint.
type PartitionFunc func(table int, key uint64) int

// HashPartitioner spreads keys round-robin across n partitions
// (key mod n). This is the mapping used by all YCSB-style experiments.
func HashPartitioner(n int) PartitionFunc {
	return func(_ int, key uint64) int { return int(key % uint64(n)) }
}

// PartitionSet derives the distinct home partitions of t's declared access
// set in ascending order, caching the result in t.Partitions. Declared
// ranges contribute the partition of every key they cover — including
// keys not yet present — so a Partitioned-store scan serializes against
// any insert a concurrent transaction could make into the range (its
// phantom protection is exactly this partition-footprint overlap).
func (t *Txn) PartitionSet(pf PartitionFunc) []int {
	// Pooled transactions reset Partitions to a zero-length slice (keeping
	// the backing array), so emptiness — not nilness — marks a cold cache.
	// A transaction that genuinely touches no partitions recomputes, which
	// is harmless: the recomputation also yields nothing.
	if len(t.Partitions) > 0 {
		return t.Partitions
	}
	t.Partitions = t.Partitions[:0]
	var set [64]bool
	var overflow map[int]bool
	mark := func(p int) {
		if p < len(set) {
			set[p] = true
		} else {
			if overflow == nil {
				overflow = make(map[int]bool)
			}
			overflow[p] = true
		}
	}
	for _, op := range t.Ops {
		mark(pf(op.Table, op.Key))
	}
	for _, r := range t.Ranges {
		// Per-key enumeration is the only footprint an opaque partition
		// function admits; declared ranges are short (scan lengths, one
		// order's lines), so the cost is in line with the scan itself.
		for key := r.Lo; key < r.Hi; key++ {
			mark(pf(r.Table, key))
		}
	}
	for p := range set {
		if set[p] {
			t.Partitions = append(t.Partitions, p)
		}
	}
	if overflow != nil {
		for p := range overflow {
			t.Partitions = append(t.Partitions, p)
		}
		sortInts(t.Partitions)
	}
	return t.Partitions
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

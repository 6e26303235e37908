package storage

import "fmt"

// CheckInsert reports whether Insert(key, value) would fail on t,
// without mutating anything. Log replay and checkpoint compaction use it
// to end the applicable log prefix before a record whose writes cannot
// all land, so a record is never half applied.
func CheckInsert(t Table, key uint64, value []byte) error {
	switch tt := t.(type) {
	case *GrowTable:
		if len(value) > tt.recSize {
			return fmt.Errorf("storage: value size %d exceeds record size %d for table %s", len(value), tt.recSize, tt.name)
		}
		if tt.ordered && key>>63 != 0 {
			return fmt.Errorf("storage: key %d has bit 63 set (reserved for stripe locks) on ordered table %s", key, tt.name)
		}
		return nil
	case *VersionedTable:
		return checkFixedInsert(tt.FixedTable, key)
	case *FixedTable:
		return checkFixedInsert(tt, key)
	default:
		return nil
	}
}

// checkFixedInsert mirrors FixedTable.Insert's only failure condition.
func checkFixedInsert(t *FixedTable, key uint64) error {
	if key >= t.n {
		return fmt.Errorf("storage: key %d out of range for table %s (n=%d)", key, t.name, t.n)
	}
	return nil
}

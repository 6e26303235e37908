package txn

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestModeConflicts(t *testing.T) {
	if Read.Conflicts(Read) {
		t.Fatal("R/R conflicts")
	}
	if !Read.Conflicts(Write) || !Write.Conflicts(Read) || !Write.Conflicts(Write) {
		t.Fatal("write conflicts missing")
	}
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("String")
	}
}

func TestOpLess(t *testing.T) {
	a := Op{Table: 0, Key: 5}
	b := Op{Table: 0, Key: 6}
	c := Op{Table: 1, Key: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("ordering broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

func TestSortOpsDedup(t *testing.T) {
	tx := &Txn{Ops: []Op{
		{Table: 1, Key: 3, Mode: Read},
		{Table: 0, Key: 9, Mode: Write},
		{Table: 1, Key: 3, Mode: Write}, // dup of first, stronger mode
		{Table: 0, Key: 9, Mode: Read},  // dup, weaker mode
		{Table: 0, Key: 1, Mode: Read},
	}}
	tx.SortOps()
	want := []Op{
		{Table: 0, Key: 1, Mode: Read},
		{Table: 0, Key: 9, Mode: Write},
		{Table: 1, Key: 3, Mode: Write},
	}
	if len(tx.Ops) != len(want) {
		t.Fatalf("Ops = %v", tx.Ops)
	}
	for i := range want {
		if tx.Ops[i] != want[i] {
			t.Fatalf("Ops[%d] = %v, want %v", i, tx.Ops[i], want[i])
		}
	}
}

func TestDeclared(t *testing.T) {
	tx := &Txn{Ops: []Op{
		{Table: 0, Key: 1, Mode: Read},
		{Table: 0, Key: 2, Mode: Write},
	}}
	tx.SortOps()
	if !tx.Declared(0, 1, Read) {
		t.Fatal("read of declared read key not found")
	}
	if tx.Declared(0, 1, Write) {
		t.Fatal("write allowed on read-declared key")
	}
	if !tx.Declared(0, 2, Read) || !tx.Declared(0, 2, Write) {
		t.Fatal("write-declared key must satisfy both modes")
	}
	if tx.Declared(0, 3, Read) || tx.Declared(1, 1, Read) {
		t.Fatal("undeclared key reported declared")
	}
}

func TestResetScratch(t *testing.T) {
	tx := &Txn{TS: 99}
	tx.ResetScratch()
	if tx.TS != 0 {
		t.Fatalf("scratch not cleared: %+v", tx)
	}
}

// Property: SortOps output is sorted, duplicate-free, covers exactly the
// distinct input keys, and Declared agrees with a naive scan.
func TestSortOpsProperty(t *testing.T) {
	f := func(raw []uint16, modes []bool) bool {
		tx := &Txn{}
		type tk struct {
			tbl int
			key uint64
		}
		strongest := map[tk]Mode{}
		for i, k := range raw {
			m := Read
			if i < len(modes) && modes[i] {
				m = Write
			}
			tbl := int(k % 3)
			key := uint64(k / 3 % 50)
			tx.Ops = append(tx.Ops, Op{Table: tbl, Key: key, Mode: m})
			if m == Write || strongest[tk{tbl, key}] == Read {
				if cur, ok := strongest[tk{tbl, key}]; !ok || (cur == Read && m == Write) {
					strongest[tk{tbl, key}] = m
				}
			} else if _, ok := strongest[tk{tbl, key}]; !ok {
				strongest[tk{tbl, key}] = m
			}
		}
		tx.SortOps()
		if len(tx.Ops) != len(strongest) {
			return false
		}
		if !sort.SliceIsSorted(tx.Ops, func(i, j int) bool { return tx.Ops[i].Less(tx.Ops[j]) }) {
			return false
		}
		for _, op := range tx.Ops {
			if strongest[tk{op.Table, op.Key}] != op.Mode {
				return false
			}
			if !tx.Declared(op.Table, op.Key, op.Mode) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- range declarations and stripe (gap) keys ----------------------------

func TestStripeKeys(t *testing.T) {
	if StripeKey(0) != StripeFlag {
		t.Fatalf("StripeKey(0) = %x", StripeKey(0))
	}
	if StripeKey(StripeSize-1) != StripeKey(0) {
		t.Fatal("keys within one stripe map to different stripe keys")
	}
	if StripeKey(StripeSize) == StripeKey(StripeSize-1) {
		t.Fatal("stripe boundary not respected")
	}
	first, last := StripeSpan(10, 20)
	if first != last || first != StripeKey(10) {
		t.Fatalf("StripeSpan(10,20) = %x..%x", first, last)
	}
	first, last = StripeSpan(StripeSize-1, StripeSize+1)
	if last != first+1 {
		t.Fatalf("StripeSpan across a boundary = %x..%x", first, last)
	}
	// Stripe keys sort after every record key of the same table, keeping
	// the global (table, key) lock order total.
	rec := Op{Table: 3, Key: ^uint64(0) >> 1} // largest legal record key
	str := Op{Table: 3, Key: StripeKey(0)}
	if !rec.Less(str) {
		t.Fatal("stripe key does not sort after record keys")
	}
}

func TestDeclaredRange(t *testing.T) {
	tx := &Txn{Ranges: []RangeOp{
		{Table: 1, Lo: 100, Hi: 200, Mode: Read},
		{Table: 2, Lo: 0, Hi: 50, Mode: Write},
	}}
	if !tx.DeclaredRange(1, 100, 200, Read) || !tx.DeclaredRange(1, 150, 160, Read) {
		t.Fatal("covered range not declared")
	}
	if tx.DeclaredRange(1, 99, 200, Read) || tx.DeclaredRange(1, 100, 201, Read) {
		t.Fatal("uncovered range declared")
	}
	if tx.DeclaredRange(1, 100, 200, Write) {
		t.Fatal("Read range satisfied a Write requirement")
	}
	if !tx.DeclaredRange(2, 10, 20, Read) || !tx.DeclaredRange(2, 10, 20, Write) {
		t.Fatal("Write range must satisfy both modes")
	}
	if tx.DeclaredRange(3, 0, 1, Read) {
		t.Fatal("undeclared table declared")
	}
}

func TestSortOpsDedupesStripeOps(t *testing.T) {
	tx := &Txn{Ops: []Op{
		{Table: 1, Key: StripeKey(5), Mode: Read},
		{Table: 1, Key: 5, Mode: Write},
		{Table: 1, Key: StripeKey(5), Mode: Write},
	}}
	tx.SortOps()
	if len(tx.Ops) != 2 {
		t.Fatalf("ops = %v", tx.Ops)
	}
	if tx.Ops[0].Key != 5 || tx.Ops[1].Key != StripeKey(5) {
		t.Fatalf("order wrong: %v", tx.Ops)
	}
	if tx.Ops[1].Mode != Write {
		t.Fatal("duplicate stripe did not widen to Write")
	}
}

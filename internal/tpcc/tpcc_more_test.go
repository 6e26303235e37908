package tpcc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Remote NewOrder transactions must declare stock locks in the remote
// warehouse, so the ORTHRUS chain for them spans exactly two CC threads
// when CC count equals warehouse count.
func TestRemoteNewOrderSpansTwoCCThreads(t *testing.T) {
	s := testSchema(t, 2)
	pf := s.PartitionByWarehouse(2)
	rng := rand.New(rand.NewSource(7))
	remoteSeen := false
	for i := 0; i < 400 && !remoteSeen; i++ {
		p := s.GenNewOrderParams(rng, 100) // force remote
		if !p.RemoteWH {
			continue
		}
		remoteSeen = true
		tx := s.NewOrderTxn(p)
		parts := map[int]bool{}
		for _, op := range tx.Ops {
			parts[pf(op.Table, op.Key)] = true
		}
		if len(parts) != 2 {
			t.Fatalf("remote order spans %d CC threads", len(parts))
		}
	}
	if !remoteSeen {
		t.Fatal("no remote order generated at 100% remote rate")
	}
}

// Payment with a mutated secondary index: the OLLP plan goes stale between
// generation and execution, and the engines must recover via Replan. This
// forces the miss path that is never exercised by the static index.
func TestPaymentOLLPMissOnIndexChange(t *testing.T) {
	s := testSchema(t, 1)
	p := PaymentParams{W: 0, D: 0, CW: 0, CD: 0, ByName: true, NameCode: 3, Amount: 100}
	tx := s.PaymentTxn(p)
	tx.SortOps()

	// Invalidate the plan: move the posting list's middle by inserting a
	// customer with the same last-name code.
	planned, _ := s.resolveCustomer(p)
	s.CustIndex.Add(lastNameKey(0, 0, 3), planned+7) // key beyond old middle
	fresh, _ := s.resolveCustomer(p)
	if fresh == planned {
		// Middle may be unchanged with an even→odd transition; add more.
		s.CustIndex.Add(lastNameKey(0, 0, 3), planned+11)
		fresh, _ = s.resolveCustomer(p)
	}
	if fresh == planned {
		t.Skip("could not displace index middle with this layout")
	}

	ctx := &engine.PlannedCtx{DB: s.DB}
	ctx.Begin(tx)
	err := tx.Logic(ctx)
	if err != txn.ErrEstimateMiss {
		t.Fatalf("stale plan: err = %v, want ErrEstimateMiss", err)
	}
	ctx.Abort()

	// Replan and re-run: must now commit against the fresh customer.
	tx.Replan(tx)
	tx.SortOps()
	ctx.Begin(tx)
	if err := tx.Logic(ctx); err != nil {
		t.Fatalf("replanned run failed: %v", err)
	}
	ctx.Commit()
	crec := s.DB.Table(s.Customer).Get(fresh)
	if storage.GetU64(crec, cPaymentCnt) != 1 {
		t.Fatal("payment not applied after replanning")
	}
	// The warehouse rollback must have kept W_YTD consistent: exactly one
	// committed payment.
	if got := s.TotalPayments(); got != 100 {
		t.Fatalf("W_YTD = %d, want 100 (abort leaked)", got)
	}
}

// OrderStatus and StockLevel run against live NewOrder traffic without
// corrupting anything (read-only extensions under churn).
func TestReadOnlyExtensionsUnderChurn(t *testing.T) {
	s := testSchema(t, 1)
	eng := locking.New(locking.Config{DB: s.DB, Threads: 4})
	src := &Mix{
		S:              s,
		NewOrderWeight: 60, PaymentWeight: 0,
		OrderStatusWeight: 20, StockLevelWeight: 20,
	}
	res := engine.RunClosedLoop(eng, src, 200*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Stock quantities never go non-positive-refill: every stock row stays in
// a sane range under sustained NewOrder traffic (the +91 refill rule).
func TestStockRefillInvariant(t *testing.T) {
	s := testSchema(t, 1)
	eng := orthrus.New(orthrus.Config{
		DB: s.DB, CCThreads: 1, ExecThreads: 3, Partition: s.PartitionByWarehouse(1),
	})
	src := &Mix{S: s, NewOrderWeight: 100, PaymentWeight: 0}
	if res := engine.RunClosedLoop(eng, src, 200*time.Millisecond); res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	for i := 0; i < s.Items; i++ {
		q := storage.GetI64(s.DB.Table(s.Stock).Get(s.SKey(0, i)), sQuantity)
		if q < 1 || q > 190 {
			t.Fatalf("stock %d quantity %d outside refill envelope", i, q)
		}
	}
}

// Delivery through a full engine on live traffic: credited balances and
// cursors stay consistent.
func TestDeliveryUnderEngineTraffic(t *testing.T) {
	s := testSchema(t, 1)
	eng := locking.New(locking.Config{DB: s.DB, Threads: 3})
	src := &Mix{S: s, NewOrderWeight: 70, PaymentWeight: 0, DeliveryWeight: 30}
	res := engine.RunClosedLoop(eng, src, 250*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	// Every district's delivery cursor is within [1, next_o_id].
	for d := 0; d < DistrictsPerWarehouse; d++ {
		drec := s.DB.Table(s.District).Get(DKey(0, d))
		cur := storage.GetU64(drec, dDelivOID)
		next := storage.GetU64(drec, dNextOID)
		if cur < 1 || cur > next {
			t.Fatalf("district %d cursor %d outside [1,%d]", d, cur, next)
		}
		// Orders below the cursor are delivered (carrier set, marker 0).
		for o := uint64(1); o < cur; o++ {
			orec := s.DB.Table(s.Order).Get(OKey(0, d, o))
			if orec == nil {
				t.Fatalf("delivered order (%d,%d) missing", d, o)
			}
			if storage.GetU64(orec, oCarrierID) == 0 {
				t.Fatalf("delivered order (%d,%d) has no carrier", d, o)
			}
			if marker := s.DB.Table(s.NewOrder).Get(OKey(0, d, o)); marker != nil && marker[0] != 0 {
				t.Fatalf("delivered order (%d,%d) still marked pending", d, o)
			}
		}
	}
}

// A NewOrder that writes then re-reads the same district through the 2PL
// upgrade guard: Write-then-Read on the same key must reuse the held
// exclusive lock (no self-deadlock).
func TestHeldLockReuse(t *testing.T) {
	s := testSchema(t, 1)
	// The Mix's NewOrder logic writes District once but the guard matters
	// for any same-key reaccess; construct one explicitly.
	tx := &txn.Txn{Ops: []txn.Op{{Table: s.District, Key: DKey(0, 0), Mode: txn.Write}}}
	tx.Logic = func(ctx txn.Ctx) error {
		if _, err := ctx.Write(s.District, DKey(0, 0)); err != nil {
			return err
		}
		// Re-read under the held X lock.
		if _, err := ctx.Read(s.District, DKey(0, 0)); err != nil {
			return err
		}
		// And re-write.
		_, err := ctx.Write(s.District, DKey(0, 0))
		return err
	}
	ctx := &engine.PlannedCtx{DB: s.DB}
	ctx.Begin(tx)
	if err := tx.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Commit()
}

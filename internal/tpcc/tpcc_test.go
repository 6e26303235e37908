package tpcc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func testSchema(t *testing.T, warehouses int) *Schema {
	t.Helper()
	s, err := Load(Config{Warehouses: warehouses, Items: 200, CustomersPerDistrict: 30})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadRejectsBadConfig(t *testing.T) {
	if _, err := Load(Config{Warehouses: 0}); err == nil {
		t.Fatal("Load accepted zero warehouses")
	}
}

func TestLoaderCardinalities(t *testing.T) {
	s := testSchema(t, 2)
	db := s.DB
	if db.Table(s.Warehouse).Len() != 2 {
		t.Fatal("warehouse count")
	}
	if db.Table(s.District).Len() != 20 {
		t.Fatal("district count")
	}
	if db.Table(s.Customer).Len() != 2*10*30 {
		t.Fatal("customer count")
	}
	if db.Table(s.Stock).Len() != 2*200 {
		t.Fatal("stock count")
	}
	if db.Table(s.Item).Len() != 200 {
		t.Fatal("item count")
	}
	// Every item has a price; every stock row has quantity in [10,100].
	for i := 0; i < s.Items; i++ {
		if storage.GetU64(db.Table(s.Item).Get(IKey(i)), iPrice) == 0 {
			t.Fatalf("item %d has no price", i)
		}
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < s.Items; i++ {
			q := storage.GetI64(db.Table(s.Stock).Get(s.SKey(w, i)), sQuantity)
			if q < 10 || q > 100 {
				t.Fatalf("stock (%d,%d) quantity %d", w, i, q)
			}
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncodingsRoundTrip(t *testing.T) {
	s := testSchema(t, 3)
	cases := []struct {
		table int
		key   uint64
		want  int
	}{
		{s.Warehouse, WKey(2), 2},
		{s.District, DKey(2, 9), 2},
		{s.Customer, s.CKey(1, 5, 29), 1},
		{s.Stock, s.SKey(2, 199), 2},
		{s.Order, OKey(1, 3, 77), 1},
		{s.NewOrder, OKey(2, 0, 1), 2},
		{s.OrderLine, OLKey(1, 9, 123, 15), 1},
	}
	for _, c := range cases {
		if got := s.WarehouseOf(c.table, c.key); got != c.want {
			t.Errorf("WarehouseOf(t%d, %d) = %d, want %d", c.table, c.key, got, c.want)
		}
	}
	// Distinct (w,d,o,ol) tuples must map to distinct OrderLine keys.
	seen := map[uint64]bool{}
	for w := 0; w < 3; w++ {
		for d := 0; d < 10; d++ {
			for o := uint64(1); o < 4; o++ {
				for ol := 1; ol <= MaxOrderLines; ol++ {
					k := OLKey(w, d, o, ol)
					if seen[k] {
						t.Fatalf("OLKey collision at (%d,%d,%d,%d)", w, d, o, ol)
					}
					seen[k] = true
				}
			}
		}
	}
}

func TestPartitionByWarehouse(t *testing.T) {
	s := testSchema(t, 4)
	pf := s.PartitionByWarehouse(2)
	if pf(s.Warehouse, WKey(3)) != 1 || pf(s.Warehouse, WKey(2)) != 0 {
		t.Fatal("warehouse partitioning wrong")
	}
	if pf(s.District, DKey(3, 7)) != 1 {
		t.Fatal("district partitioning wrong")
	}
}

func TestLastNameRendering(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
}

func TestNURandRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := NURand(rng, 1023, 0, 29)
		if v < 0 || v > 29 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
}

func TestGenNewOrderParamsShape(t *testing.T) {
	s := testSchema(t, 4)
	rng := rand.New(rand.NewSource(2))
	remote := 0
	for i := 0; i < 2000; i++ {
		p := s.GenNewOrderParams(rng, 10)
		if len(p.Items) < 5 || len(p.Items) > 15 {
			t.Fatalf("lines = %d", len(p.Items))
		}
		seen := map[int]bool{}
		wh := map[int]bool{}
		for j, it := range p.Items {
			if seen[it] {
				t.Fatal("duplicate item in order")
			}
			seen[it] = true
			wh[p.SupplyW[j]] = true
			if p.Qty[j] < 1 || p.Qty[j] > 10 {
				t.Fatalf("qty = %d", p.Qty[j])
			}
		}
		if p.RemoteWH {
			remote++
			if len(wh) != 2 {
				t.Fatalf("remote order spans %d warehouses", len(wh))
			}
		} else if len(wh) != 1 {
			t.Fatal("local order spans multiple warehouses")
		}
	}
	if remote < 120 || remote > 280 { // ~10% of 2000
		t.Fatalf("remote rate = %d/2000", remote)
	}
}

func TestGenPaymentParamsShape(t *testing.T) {
	s := testSchema(t, 4)
	rng := rand.New(rand.NewSource(3))
	remote, byName := 0, 0
	for i := 0; i < 2000; i++ {
		p := s.GenPaymentParams(rng, 15)
		if p.CW != p.W {
			remote++
		}
		if p.ByName {
			byName++
			if p.NameCode < 0 || p.NameCode >= 30 {
				t.Fatalf("name code %d out of range for 30 customers", p.NameCode)
			}
		}
	}
	if remote < 200 || remote > 400 { // ~15%
		t.Fatalf("remote rate = %d/2000", remote)
	}
	if byName < 1050 || byName > 1350 { // ~60%
		t.Fatalf("by-name rate = %d/2000", byName)
	}
}

// Run the paper's 50/50 mix on every engine; TPC-C's money invariants must
// hold afterwards and the ledger must match the committed counts.
func TestMixOnAllEngines(t *testing.T) {
	const threads = 4
	build := func(s *Schema) []engine.Engine {
		return []engine.Engine{
			locking.New(locking.Config{DB: s.DB, Handler: deadlock.NewDreadlocks(threads), Threads: threads}),
			locking.New(locking.Config{DB: s.DB, Handler: deadlock.WaitDie{}, Threads: threads}),
			locking.New(locking.Config{DB: s.DB, Threads: threads}),
			orthrus.New(orthrus.Config{
				DB: s.DB, CCThreads: 2, ExecThreads: 2,
				Partition: s.PartitionByWarehouse(2),
			}),
		}
	}
	// Engines share nothing across subtests: fresh schema per engine.
	for i := 0; i < 4; i++ {
		s := testSchema(t, 2)
		eng := build(s)[i]
		t.Run(eng.Name(), func(t *testing.T) {
			src := &Mix{S: s}
			res := eng.Run(src, 200*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if err := s.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if s.OrdersPlaced() == 0 {
				t.Fatal("no orders placed")
			}
			if s.TotalPayments() == 0 {
				t.Fatal("no payments recorded")
			}
		})
	}
}

// The full five-transaction mix (extensions included) must hold the same
// invariants.
func TestFullMixWithExtensions(t *testing.T) {
	s := testSchema(t, 2)
	eng := locking.New(locking.Config{DB: s.DB, Threads: 4})
	src := &Mix{
		S:              s,
		NewOrderWeight: 45, PaymentWeight: 43,
		OrderStatusWeight: 4, DeliveryWeight: 4, StockLevelWeight: 4,
	}
	res := eng.Run(src, 300*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFullMixOnOrthrus(t *testing.T) {
	s := testSchema(t, 2)
	eng := orthrus.New(orthrus.Config{
		DB: s.DB, CCThreads: 2, ExecThreads: 3,
		Partition: s.PartitionByWarehouse(2),
	})
	src := &Mix{
		S:              s,
		NewOrderWeight: 45, PaymentWeight: 43,
		OrderStatusWeight: 4, DeliveryWeight: 4, StockLevelWeight: 4,
	}
	res := eng.Run(src, 300*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Deliveries must credit customers with exactly the ordered amounts.
func TestDeliveryCreditsCustomer(t *testing.T) {
	s := testSchema(t, 1)
	// Place one order synchronously through a planned context.
	p := s.GenNewOrderParams(rand.New(rand.NewSource(4)), 0)
	order := s.NewOrderTxn(p)
	engine.MaterializeRanges(s.DB, order) // stripe locks for the inserts
	order.SortOps()
	ctx := &engine.PlannedCtx{DB: s.DB}
	ctx.Begin(order)
	if err := order.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Commit()

	del := s.DeliveryTxn(0)
	engine.MaterializeRanges(s.DB, del)
	del.SortOps()
	ctx.Begin(del)
	if err := del.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Commit()

	crec := s.DB.Table(s.Customer).Get(s.CKey(p.W, p.D, p.C))
	if storage.GetU64(crec, cDeliveryCnt) != 1 {
		t.Fatal("delivery count not incremented")
	}
	if storage.GetI64(crec, cBalance) <= -1000 {
		t.Fatal("customer balance not credited")
	}
	// Cursor advanced; order marked delivered.
	drec := s.DB.Table(s.District).Get(DKey(p.W, p.D))
	if storage.GetU64(drec, dDelivOID) != 2 {
		t.Fatalf("delivery cursor = %d", storage.GetU64(drec, dDelivOID))
	}
	if s.DB.Table(s.NewOrder).Get(OKey(p.W, p.D, 1))[0] != 0 {
		t.Fatal("new-order marker not cleared")
	}
}

// Payment by last name must pick the middle customer of the posting list
// and the OLLP plan must match the execution-time resolution.
func TestPaymentByNameResolution(t *testing.T) {
	s := testSchema(t, 1)
	p := PaymentParams{W: 0, D: 3, CW: 0, CD: 3, ByName: true, NameCode: 7, Amount: 500}
	tx := s.PaymentTxn(p)
	// The plan must declare the same customer the logic resolves.
	ck, ok := s.resolveCustomer(p)
	if !ok {
		t.Fatal("resolution failed")
	}
	found := false
	for _, op := range tx.Ops {
		if op.Table == s.Customer && op.Key == ck && op.Mode == txn.Write {
			found = true
		}
	}
	if !found {
		t.Fatalf("plan %v does not declare customer %d", tx.Ops, ck)
	}
	// Execute.
	tx.SortOps()
	ctx := &engine.PlannedCtx{DB: s.DB}
	ctx.Begin(tx)
	if err := tx.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Commit()
	crec := s.DB.Table(s.Customer).Get(ck)
	if storage.GetU64(crec, cPaymentCnt) != 1 || storage.GetI64(crec, cBalance) != -1500 {
		t.Fatal("payment not applied to resolved customer")
	}
}

// Confirm the mix works under the warehouse partitioner with partstore-
// style spread: all NewOrder locks resolve to at most two partitions.
func TestNewOrderPartitionFootprint(t *testing.T) {
	s := testSchema(t, 4)
	pf := s.PartitionByWarehouse(4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := s.GenNewOrderParams(rng, 10)
		tx := s.NewOrderTxn(p)
		parts := map[int]bool{}
		for _, op := range tx.Ops {
			parts[pf(op.Table, op.Key)] = true
		}
		want := 1
		if p.RemoteWH {
			want = 2
		}
		if len(parts) > want {
			t.Fatalf("order spans %d partitions, want <= %d", len(parts), want)
		}
	}
}

var _ workload.Source = (*Mix)(nil)

// The five-transaction mix (scan-heavy extensions included) on the two
// remaining engine families: conventional 2PL (lazy stripe/record scan
// locks) and Partitioned-store (partition-footprint phantom protection).
// Together with the dlfree and orthrus mixes above, all four engines run
// OrderStatus/Delivery/StockLevel through Ctx.Scan.
func TestFullMixOnTwoPL(t *testing.T) {
	s := testSchema(t, 2)
	eng := locking.New(locking.Config{DB: s.DB, Handler: deadlock.WaitDie{}, Threads: 4})
	src := &Mix{
		S:              s,
		NewOrderWeight: 45, PaymentWeight: 43,
		OrderStatusWeight: 4, DeliveryWeight: 4, StockLevelWeight: 4,
	}
	res := eng.Run(src, 300*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Scanned == 0 {
		t.Fatal("no rows flowed through Ctx.Scan")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFullMixOnPartstore(t *testing.T) {
	s := testSchema(t, 2)
	eng := locking.New(locking.Config{
		DB: s.DB, Partitions: 2, Threads: 4,
		Partition: s.PartitionByWarehouse(2),
	})
	src := &Mix{
		S:              s,
		NewOrderWeight: 45, PaymentWeight: 43,
		OrderStatusWeight: 4, DeliveryWeight: 4, StockLevelWeight: 4,
	}
	res := eng.Run(src, 300*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Scanned == 0 {
		t.Fatal("no rows flowed through Ctx.Scan")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

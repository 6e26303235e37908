package repro_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
)

// Runtime/Session lifecycle tests: the service surface must provide the
// same isolation guarantees as the closed-loop benchmark surface, because
// it is the same engine — Run is only a driver over Start/Submit/Close.

// allRuntimes mirrors allEngines but exposes the Runtime surface.
func allRuntimes(t testing.TB) []struct {
	rt  repro.System
	db  *repro.DB
	tbl int
} {
	t.Helper()
	const n, threads = 64, 4
	type entry = struct {
		rt  repro.System
		db  *repro.DB
		tbl int
	}
	var out []entry
	build := func(f func(db *repro.DB) repro.System) {
		db, tbl := newAccountDB(t, n, 1000)
		out = append(out, entry{f(db), db, tbl})
	}
	build(func(db *repro.DB) repro.System {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewDeadlockFree(repro.DeadlockFreeConfig{DB: db, Threads: threads})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewTwoPL(repro.TwoPLConfig{DB: db, Handler: repro.WaitDie(), Threads: threads})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewPartitionedStore(repro.PartitionedStoreConfig{DB: db, Partitions: threads})
	})
	return out
}

// Direct session use: concurrent submitters, per-transaction completion,
// Drain, Close. Balances must be conserved and every submission must
// complete exactly once.
func TestSessionSubmitDrainClose(t *testing.T) {
	for _, e := range allRuntimes(t) {
		e := e
		t.Run(e.rt.Name(), func(t *testing.T) {
			const submitters, perSubmitter = 4, 200
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			ses := e.rt.Start()

			var wg sync.WaitGroup
			var completions sync.WaitGroup
			completions.Add(submitters * perSubmitter)
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s)))
					for i := 0; i < perSubmitter; i++ {
						ses.Submit(src.Next(s, rng), func(bool) { completions.Done() })
					}
				}(s)
			}
			wg.Wait()
			ses.Drain()
			completions.Wait() // Drain implies every callback fired
			res := ses.Close()

			if got, want := res.Totals.Committed, uint64(submitters*perSubmitter); got != want {
				t.Fatalf("committed %d, want %d", got, want)
			}
			if res.Totals.Latency.Count() != res.Totals.Committed {
				t.Fatalf("latency samples %d != commits %d", res.Totals.Latency.Count(), res.Totals.Committed)
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("sum = %d, want %d", got, 64*1000)
			}
		})
	}
}

// Driver equivalence: the shared closed-loop driver over Runtime must
// preserve exactly the guarantees the old in-engine loops provided —
// commits counted once, balances conserved — and Engine.Run must be the
// same code path as RunClosedLoop.
func TestClosedLoopDriverEquivalence(t *testing.T) {
	for _, e := range allRuntimes(t) {
		e := e
		t.Run(e.rt.Name(), func(t *testing.T) {
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}

			// Via the generic driver over the Runtime surface.
			res := repro.RunClosedLoop(e.rt, src, 60*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("driver produced no commits")
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("sum after driver = %d, want %d", got, 64*1000)
			}

			// Via Engine.Run on the same engine instance: same invariants,
			// same reporting shape (it is the same driver).
			res2 := e.rt.Run(src, 60*time.Millisecond)
			if res2.Totals.Committed == 0 {
				t.Fatal("Run produced no commits")
			}
			if res2.System != res.System {
				t.Fatalf("system name mismatch: %q vs %q", res2.System, res.System)
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("sum after Run = %d, want %d", got, 64*1000)
			}
			if res2.Totals.Latency.Count() != res2.Totals.Committed {
				t.Fatalf("latency samples %d != commits %d", res2.Totals.Latency.Count(), res2.Totals.Committed)
			}
		})
	}
}

// The open-loop driver: every offered transaction completes, the
// driver-side histogram records exactly one sample per transaction, and
// balances are conserved under the arrival process.
func TestOpenLoopDriver(t *testing.T) {
	db, tbl := newAccountDB(t, 64, 1000)
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
	src := &repro.Transfer{Table: tbl, NumRecords: 64}

	res := repro.RunOpenLoop(eng, src, 2000, 150*time.Millisecond)
	if res.Submitted == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Totals.Committed != res.Submitted {
		t.Fatalf("committed %d != submitted %d", res.Totals.Committed, res.Submitted)
	}
	if res.Latency.Count() != res.Submitted {
		t.Fatalf("latency samples %d != submitted %d", res.Latency.Count(), res.Submitted)
	}
	if res.Latency.Percentile(99) < res.Latency.Percentile(50) {
		t.Fatalf("implausible percentiles: %v", &res.Latency)
	}
	if got := sumBalances(db, tbl, 64); got != 64*1000 {
		t.Fatalf("sum = %d, want %d", got, 64*1000)
	}
	// ~2000/s over 150ms ≈ 300 arrivals; allow wide Poisson/timer slack
	// but catch a generator that ignores the rate entirely.
	if res.Submitted < 100 || res.Submitted > 900 {
		t.Fatalf("submitted %d, want ≈300 for 2000/s over 150ms", res.Submitted)
	}
}

// delayRuntime is a stub engine whose transactions "commit" a fixed delay
// after submission — a deterministic model of an abort/retry chain (or any
// other in-engine stall). It lets the open-loop latency contract be
// asserted numerically: latency is measured from scheduled arrival to the
// *final* commit, so the whole delay must appear in every sample.
type delayRuntime struct {
	delay   time.Duration
	mu      sync.Mutex
	pending sync.WaitGroup
	closed  bool
	commits uint64
	latency repro.Histogram
	started time.Time
}

func (d *delayRuntime) Name() string { return "delay-stub" }
func (d *delayRuntime) Clients() int { return 8 }
func (d *delayRuntime) Start() repro.Session {
	d.started = time.Now()
	return d
}

func (d *delayRuntime) Submit(t *repro.Txn, done func(bool)) {
	d.pending.Add(1)
	start := time.Now()
	time.AfterFunc(d.delay, func() {
		d.mu.Lock()
		d.commits++
		d.latency.Record(time.Since(start))
		d.mu.Unlock()
		if done != nil {
			done(true)
		}
		d.pending.Done()
	})
}

func (d *delayRuntime) Drain() { d.pending.Wait() }
func (d *delayRuntime) Close() repro.Result {
	d.pending.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return repro.Result{System: d.Name(),
		Totals:   repro.Totals{Committed: d.commits, Latency: d.latency},
		Duration: time.Since(d.started)}
}

// Open-loop latency must span scheduled arrival → final commit: a stub
// whose every transaction takes a known delay to commit must show that
// delay in every percentile, and the sample count must equal submissions.
func TestOpenLoopLatencySpansRetryDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	rt := &delayRuntime{delay: delay}
	res := repro.RunOpenLoop(rt, &repro.Transfer{NumRecords: 64}, 500, 100*time.Millisecond)
	if res.Submitted == 0 {
		t.Fatal("no arrivals")
	}
	if res.Latency.Count() != res.Submitted {
		t.Fatalf("latency samples %d != submitted %d", res.Latency.Count(), res.Submitted)
	}
	// The histogram is log₂-bucketed: Percentile reports a bucket upper
	// edge, so compare against the exact per-sample floor via the mean.
	if got := res.Latency.Mean(); got < delay {
		t.Fatalf("mean open-loop latency %v < engine delay %v — retry time not charged", got, delay)
	}
	if p50 := res.Latency.Percentile(50); p50 < delay {
		t.Fatalf("p50 %v < engine delay %v", p50, delay)
	}
}

// yieldingTransfers generates transfers over two hot records that yield
// the scheduler between their two writes. Holding a lock across a yield
// forces conflicting holders to coexist even on a single-CPU machine,
// where microsecond transactions are otherwise never preempted mid-lock —
// making wait-die aborts deterministic instead of preemption-luck.
type yieldingTransfers struct{ tbl int }

func (s yieldingTransfers) Next(_ int, rng *rand.Rand) *repro.Txn {
	a := uint64(rng.Intn(2))
	b := 1 - a
	tx := &repro.Txn{Ops: []repro.Op{
		{Table: s.tbl, Key: a, Mode: repro.Write},
		{Table: s.tbl, Key: b, Mode: repro.Write},
	}}
	tx.Logic = func(ctx repro.Ctx) error {
		src, err := ctx.Write(s.tbl, a)
		if err != nil {
			return err
		}
		runtime.Gosched() // conflict window: lock on a held across a yield
		dst, err := ctx.Write(s.tbl, b)
		if err != nil {
			return err
		}
		repro.AddI64(src, 0, -1)
		repro.AddI64(dst, 0, 1)
		return nil
	}
	return tx
}

// Open-loop accounting under real aborts and retries: a hot-set transfer
// workload on wait-die 2PL aborts constantly, yet every submission must
// contribute exactly one latency sample (measured to its final commit)
// and conservation must hold under the arrival process.
func TestOpenLoopLatencyUnderAbortsAndRetries(t *testing.T) {
	db, tbl := newAccountDB(t, 64, 1000)
	eng := repro.NewTwoPL(repro.TwoPLConfig{DB: db, Handler: repro.WaitDie(), Threads: 4})
	src := yieldingTransfers{tbl: tbl}
	res := repro.RunOpenLoop(eng, src, 30000, 150*time.Millisecond)
	if res.Submitted == 0 {
		t.Fatal("no arrivals")
	}
	if res.Totals.Aborted == 0 {
		t.Fatal("hot-set workload produced no aborts — the retry path is untested")
	}
	if res.Totals.Committed != res.Submitted {
		t.Fatalf("committed %d != submitted %d (a retry chain was dropped)", res.Totals.Committed, res.Submitted)
	}
	if res.Latency.Count() != res.Submitted {
		t.Fatalf("latency samples %d != submitted %d", res.Latency.Count(), res.Submitted)
	}
	if got := sumBalances(db, tbl, 64); got != 64*1000 {
		t.Fatalf("sum = %d, want %d", got, 64*1000)
	}
}

// With a group-commit WAL, open-loop latency must include the flush
// wait: under a pure-interval policy every acknowledgment stalls for a
// share of the flush cadence, which has to surface both in the
// driver-side histogram and in the engine's Log time component.
func TestOpenLoopLatencyIncludesFlushWait(t *testing.T) {
	const interval = 4 * time.Millisecond
	db, tbl := newAccountDB(t, 1024, 1000)
	log := repro.NewWAL(repro.NewWALMemSegments(0), repro.WALGroup(1<<20, interval))
	defer log.Close()
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log})
	src := &repro.Transfer{Table: tbl, NumRecords: 1024}
	res := repro.RunOpenLoop(eng, src, 1000, 120*time.Millisecond)
	if res.Submitted == 0 {
		t.Fatal("no arrivals")
	}
	if res.Latency.Count() != res.Submitted {
		t.Fatalf("latency samples %d != submitted %d", res.Latency.Count(), res.Submitted)
	}
	// Acks fire once per interval, so the average commit stalls roughly
	// interval/2; demand a conservative quarter to stay robust on slow CI.
	if p50 := res.Latency.Percentile(50); p50 < interval/4 {
		t.Fatalf("p50 %v does not include the flush wait (interval %v)", p50, interval)
	}
	if res.Totals.Log <= 0 {
		t.Fatal("no Log time accounted despite a group-commit WAL")
	}
	if res.Totals.Latency.Mean() < interval/4 {
		t.Fatalf("service latency %v excludes flush wait", res.Totals.Latency.Mean())
	}
}

// One live session per engine at a time: a second concurrent Start must
// panic loudly (it would race on engine-level state), while sequential
// Start→Close→Start reuse — what every Run call does — must work on all
// four systems.
func TestRuntimeSingleSessionContract(t *testing.T) {
	for _, e := range allRuntimes(t) {
		e := e
		t.Run(e.rt.Name(), func(t *testing.T) {
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			rng := rand.New(rand.NewSource(1))

			ses := e.rt.Start()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("second concurrent Start did not panic")
					}
				}()
				e.rt.Start()
			}()

			// Sequential restart: close the live session, start another,
			// and prove the second session serves transactions correctly.
			ses.Submit(src.Next(0, rng), nil)
			ses.Drain()
			ses.Close()

			ses2 := e.rt.Start()
			for i := 0; i < 50; i++ {
				ses2.Submit(src.Next(0, rng), nil)
			}
			ses2.Drain()
			res := ses2.Close()
			if res.Totals.Committed != 50 {
				t.Fatalf("restarted session committed %d, want 50", res.Totals.Committed)
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("sum = %d, want %d", got, 64*1000)
			}

			// Double Close must panic, not silently release the in-use
			// guard a newer session may hold.
			func() {
				defer func() {
					if recover() == nil {
						t.Error("second Close did not panic")
					}
				}()
				ses2.Close()
			}()
		})
	}
}

// Submit on a closed session must panic instead of hanging against
// stopped engine threads.
func TestSubmitAfterClosePanics(t *testing.T) {
	for _, e := range allRuntimes(t) {
		e := e
		t.Run(e.rt.Name(), func(t *testing.T) {
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			rng := rand.New(rand.NewSource(1))
			ses := e.rt.Start()
			ses.Submit(src.Next(0, rng), nil)
			ses.Drain()
			ses.Close()
			defer func() {
				if recover() == nil {
					t.Error("Submit after Close did not panic")
				}
			}()
			ses.Submit(src.Next(0, rng), nil)
		})
	}
}

// fixedSpread emits transactions touching exactly one key in each of k
// partitions of a k-way hash partitioning — a deterministic footprint,
// so message counts are exact.
type fixedSpread struct {
	table int
	k     int
	n     uint64
}

func (s *fixedSpread) Next(_ int, rng *rand.Rand) *repro.Txn {
	ops := make([]repro.Op, s.k)
	base := uint64(rng.Int63n(int64(s.n/uint64(s.k)-1))) * uint64(s.k)
	for i := 0; i < s.k; i++ {
		ops[i] = repro.Op{Table: s.table, Key: base + uint64(i), Mode: repro.Write}
	}
	t := &repro.Txn{Ops: ops}
	t.Logic = func(ctx repro.Ctx) error {
		for _, op := range t.Ops {
			rec, err := ctx.Write(op.Table, op.Key)
			if err != nil {
				return err
			}
			repro.AddU64(rec, 0, 1)
		}
		return nil
	}
	return t
}

// Message-plane ablation through the public API: with forwarding, a
// transaction spanning all Ncc CC threads costs exactly Ncc+1 acquisition
// messages; with DisableForwarding the execution thread mediates every
// hop and pays 2·Ncc (§3.3, Figures 2 and 3).
func TestMessagePlaneAblation(t *testing.T) {
	const ncc = 4
	for _, tc := range []struct {
		name    string
		naive   bool
		perTxn  float64
		comment string
	}{
		{"forwarding", false, ncc + 1, "Ncc+1"},
		{"exec-mediated", true, 2 * ncc, "2·Ncc"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{Name: "t", NumRecords: 1 << 12, RecordSize: 64})
			eng := repro.NewOrthrus(repro.OrthrusConfig{
				DB: db, CCThreads: ncc, ExecThreads: 2, DisableForwarding: tc.naive,
			})
			src := &fixedSpread{table: tbl, k: ncc, n: 1 << 12}
			res := eng.Run(src, 80*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			m := eng.Messages()
			got := float64(m.AcquisitionMessages()) / float64(res.Totals.Committed)
			if got != tc.perTxn {
				t.Fatalf("acquisition messages per txn = %v, want %v (%s); stats %+v commits %d",
					got, tc.perTxn, tc.comment, m, res.Totals.Committed)
			}
		})
	}
}

package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/txn"
)

// Submit on a closed WorkerSession must panic with a descriptive error
// instead of spinning forever against the stopped worker pool.
func TestWorkerSessionSubmitAfterClosePanics(t *testing.T) {
	ws := NewWorkerSession("test", 1, 4, nil, nil, func(int, *metrics.ThreadStats) func(*txn.Txn, *Completion) {
		return func(_ *txn.Txn, c *Completion) { c.Finish() }
	})
	ws.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close did not panic")
		}
	}()
	ws.Submit(&txn.Txn{}, nil)
}

// The InUseGuard contract: concurrent double-Start panics, sequential
// Start→Close→Start reuse works.
func TestInUseGuard(t *testing.T) {
	newWS := func(g *InUseGuard) *WorkerSession {
		return NewWorkerSession("test", 1, 4, g, nil, func(int, *metrics.ThreadStats) func(*txn.Txn, *Completion) {
			return func(_ *txn.Txn, c *Completion) { c.Finish() }
		})
	}
	var g InUseGuard
	ws := newWS(&g)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second concurrent session did not panic")
			}
		}()
		newWS(&g)
	}()
	ws.Close()
	ws2 := newWS(&g) // sequential reuse after Close must succeed
	ws2.Submit(&txn.Txn{}, nil)
	ws2.Drain()
	ws2.Close()
}

// WorkerSession plumbing: every submission executes exactly once, the
// completion callback fires reporting a commit, commit latency is recorded
// for each, and Close aggregates across workers.
func TestWorkerSessionLifecycle(t *testing.T) {
	var executed atomic.Int64
	ws := NewWorkerSession("test", 3, 16, nil, nil, func(thread int, stats *metrics.ThreadStats) func(*txn.Txn, *Completion) {
		return func(tx *txn.Txn, c *Completion) {
			executed.Add(1)
			stats.Committed++
			c.Finish()
		}
	})

	var callbacks, committed atomic.Int64
	const n = 200
	for i := 0; i < n; i++ {
		ws.Submit(&txn.Txn{}, func(ok bool) {
			callbacks.Add(1)
			if ok {
				committed.Add(1)
			}
		})
	}
	ws.Drain()
	if got := executed.Load(); got != n {
		t.Fatalf("executed %d, want %d", got, n)
	}
	if got := callbacks.Load(); got != n {
		t.Fatalf("callbacks %d, want %d", got, n)
	}
	if got := committed.Load(); got != n {
		t.Fatalf("committed=true callbacks %d, want %d", got, n)
	}
	res := ws.Close()
	if res.Totals.Committed != n {
		t.Fatalf("committed %d, want %d", res.Totals.Committed, n)
	}
	if res.Totals.Latency.Count() != n {
		t.Fatalf("latency samples %d, want %d", res.Totals.Latency.Count(), n)
	}
	if res.System != "test" || res.Duration <= 0 {
		t.Fatalf("bad result envelope: %+v", res)
	}
}

package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// Single-thread determinism: every engine executing the same scripted
// serial transaction sequence must drive the database to the identical
// final state. This catches any engine applying, dropping, duplicating or
// corrupting effects — independent of timing.

// boundedSource serves exactly stopAt scripted transactions, then serves
// effect-free no-ops until the engine's stop timer fires.
type boundedSource struct {
	script []func() *repro.Txn
	stopAt int64
	next   atomic.Int64
}

func (s *boundedSource) Next(int, *rand.Rand) *repro.Txn {
	i := s.next.Add(1) - 1
	if i < s.stopAt {
		return s.script[i]()
	}
	t := &repro.Txn{}
	t.Logic = func(repro.Ctx) error { return nil }
	return t
}

func buildScript(tbl int, n int) []func() *repro.Txn {
	rng := rand.New(rand.NewSource(99))
	script := make([]func() *repro.Txn, n)
	for i := range script {
		a := uint64(rng.Intn(32))
		b := uint64(rng.Intn(31))
		if b >= a {
			b++
		}
		delta := int64(1 + rng.Intn(9))
		script[i] = func() *repro.Txn {
			t := &repro.Txn{Ops: []repro.Op{
				{Table: tbl, Key: a, Mode: repro.Write},
				{Table: tbl, Key: b, Mode: repro.Write},
			}}
			t.Logic = func(ctx repro.Ctx) error {
				src, err := ctx.Write(tbl, a)
				if err != nil {
					return err
				}
				dst, err := ctx.Write(tbl, b)
				if err != nil {
					return err
				}
				repro.AddI64(src, 0, -delta)
				repro.AddI64(dst, 0, delta)
				return nil
			}
			return t
		}
	}
	return script
}

func stateHash(db *repro.DB, tbl int, rows uint64) string {
	h := sha256.New()
	for k := uint64(0); k < rows; k++ {
		h.Write(db.Table(tbl).Get(k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSingleThreadDeterminismAcrossEngines(t *testing.T) {
	const rows, scripted = 32, 200
	builders := []struct {
		name  string
		build func(db *repro.DB) repro.Engine
	}{
		{"orthrus", func(db *repro.DB) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1, Inflight: 1})
		}},
		{"dlfree", func(db *repro.DB) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: 1})
		}},
		{"2pl-waitdie", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 1})
		}},
		{"2pl-waitfor", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitForGraph(1), Threads: 1})
		}},
		{"2pl-dreadlocks", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.Dreadlocks(1), Threads: 1})
		}},
		{"partstore", func(db *repro.DB) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: 1, Threads: 1})
		}},
	}

	var want string
	for _, b := range builders {
		db := repro.NewDB()
		tbl := db.Create(repro.Layout{Name: "t", NumRecords: rows, RecordSize: 16})
		for k := uint64(0); k < rows; k++ {
			repro.PutI64(db.Table(tbl).Get(k), 0, 1000)
		}
		src := &boundedSource{script: buildScript(tbl, scripted), stopAt: scripted}
		res := repro.RunClosedLoop(b.build(db), src, 120*time.Millisecond)
		if res.Totals.Committed < scripted {
			t.Fatalf("%s: committed %d < %d scripted txns", b.name, res.Totals.Committed, scripted)
		}
		h := stateHash(db, tbl, rows)
		if want == "" {
			want = h
		} else if h != want {
			t.Fatalf("%s reached a different final state", b.name)
		}
	}
}

package repro_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
)

// The planned engines keep a before-image only when a rollback can read
// it: a transaction with a Replan hook is rolled back on an OLLP estimate
// miss, one without panics instead. These tests pin both halves through
// the public facade on ORTHRUS and deadlock-free locking.

const undoWords = 4 // four-word records, checked word by word

type plannedEngine struct {
	name  string
	build func(db *repro.DB) repro.Runtime
}

func plannedEngines() []plannedEngine {
	return []plannedEngine{
		{"orthrus", func(db *repro.DB) repro.Runtime {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
		}},
		{"dlfree", func(db *repro.DB) repro.Runtime {
			return repro.NewDeadlockFree(repro.DeadlockFreeConfig{DB: db, Threads: 2})
		}},
	}
}

// newUndoDB returns a table of 16 four-word records, word w of key k
// holding k<<8|w.
func newUndoDB() (*repro.DB, int) {
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "t", NumRecords: 16, RecordSize: 8 * undoWords})
	for k := uint64(0); k < 16; k++ {
		for w := 0; w < undoWords; w++ {
			repro.PutU64(db.Table(tbl).Get(k), 8*w, k<<8|uint64(w))
		}
	}
	return db, tbl
}

func undoTableWords(db *repro.DB, tbl int) (out [16][undoWords]uint64) {
	for k := range out {
		for w := range out[k] {
			out[k][w] = repro.GetU64(db.Table(tbl).Get(uint64(k)), 8*w)
		}
	}
	return out
}

// missAfterWrites declares Write on keys 1..3, stamps every word of each
// and then reads key 9, which the first plan leaves out: an estimate miss
// after the first write. withKey9 is the corrected plan.
func missAfterWrites(tbl int) (tx *repro.Txn, withKey9 func(*repro.Txn)) {
	tx = &repro.Txn{}
	for k := uint64(1); k <= 3; k++ {
		tx.Ops = append(tx.Ops, repro.Op{Table: tbl, Key: k, Mode: repro.Write})
	}
	tx.Logic = func(ctx repro.Ctx) error {
		for k := uint64(1); k <= 3; k++ {
			rec, err := ctx.Write(tbl, k)
			if err != nil {
				return err
			}
			for w := 0; w < undoWords; w++ {
				repro.PutU64(rec, 8*w, 0xC0DE0000|k<<8|uint64(w))
			}
		}
		_, err := ctx.Read(tbl, 9)
		return err
	}
	return tx, func(t *repro.Txn) {
		t.Ops = append(t.Ops, repro.Op{Table: tbl, Key: 9, Mode: repro.Read})
	}
}

func TestEstimateMissAfterWritesRollsBackBeforeRetry(t *testing.T) {
	for _, e := range plannedEngines() {
		t.Run(e.name, func(t *testing.T) {
			db, tbl := newUndoDB()
			before := undoTableWords(db, tbl)
			tx, withKey9 := missAfterWrites(tbl)
			// Replan runs on the engine's thread after the rollback; with
			// one transaction in the system nothing else writes the table.
			var atReplan [][16][undoWords]uint64
			tx.Replan = func(t *repro.Txn) {
				atReplan = append(atReplan, undoTableWords(db, tbl))
				withKey9(t)
			}
			ses := e.build(db).Start()
			dones, commits := 0, 0
			ses.Submit(tx, func(committed bool) {
				dones++
				if committed {
					commits++
				}
			})
			ses.Drain()
			res := ses.Close()

			if len(atReplan) != 1 {
				t.Fatalf("Replan ran %d times, want 1", len(atReplan))
			}
			if atReplan[0] != before {
				t.Fatalf("records not restored before the retry:\n got %x\nwant %x", atReplan[0], before)
			}
			if dones != 1 || commits != 1 || res.Totals.Committed != 1 || res.Totals.Misses != 1 {
				t.Fatalf("callbacks=%d committed callbacks=%d Committed=%d Misses=%d, want 1 each",
					dones, commits, res.Totals.Committed, res.Totals.Misses)
			}
			after := undoTableWords(db, tbl)
			for k := uint64(0); k < 16; k++ {
				for w := 0; w < undoWords; w++ {
					want := before[k][w]
					if k >= 1 && k <= 3 {
						want = 0xC0DE0000 | k<<8 | uint64(w)
					}
					if after[k][w] != want {
						t.Fatalf("key %d word %d = %x after the retried commit, want %x", k, w, after[k][w], want)
					}
				}
			}
		})
	}
}

// Without a Replan hook the same miss is a contract violation: the engine
// panics (on its own goroutine, so the crash is observed from a child
// process) with the message it always had.
func TestEstimateMissWithoutReplanPanics(t *testing.T) {
	if which := os.Getenv("REPRO_UNDO_CRASH"); which != "" {
		for _, e := range plannedEngines() {
			if e.name == which {
				db, tbl := newUndoDB()
				tx, _ := missAfterWrites(tbl)
				ses := e.build(db).Start()
				ses.Submit(tx, nil)
				ses.Drain()
			}
		}
		return // reached only if the engine did not panic
	}
	for _, e := range plannedEngines() {
		t.Run(e.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestEstimateMissWithoutReplanPanics$")
			cmd.Env = append(os.Environ(), "REPRO_UNDO_CRASH="+e.name)
			out, err := cmd.CombinedOutput()
			want := "panic: " + e.name + ": estimate miss without Replan hook"
			if err == nil || !strings.Contains(string(out), want) {
				t.Fatalf("child: err=%v, want a crash with %q; output:\n%s", err, want, out)
			}
		})
	}
}

package locktab

import (
	"math/rand"
	"testing"
)

type queue struct{ head, tail *int }

// check asserts the structure's invariants against a model of what should
// be live: the count, every model key still resolving to the entry it was
// given (entries never move), and every occupied slot reachable — no empty
// slot between its home and where it sits, which is what backward-shift
// deletion has to preserve. It returns the longest probe.
func check(t *testing.T, tab *Table[queue], model map[Key]*Entry[queue]) (maxProbe int) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(model))
	}
	mask := uint64(len(tab.slots) - 1)
	live := 0
	for i, s := range tab.slots {
		if s.e == nil {
			continue
		}
		live++
		if s.hash != s.key.Hash() || s.e.hash != s.hash {
			t.Fatalf("slot %d: stored hash does not match key %v", i, s.key)
		}
		if model[s.key] != s.e {
			t.Fatalf("slot %d: key %v maps to a different entry than it was given", i, s.key)
		}
		home := s.hash >> tab.shift
		probe := int((uint64(i) - home) & mask)
		maxProbe = max(maxProbe, probe)
		for d := 0; d < probe; d++ {
			if tab.slots[(home+uint64(d))&mask].e == nil {
				t.Fatalf("slot %d: key %v unreachable, empty slot %d steps from its home %d", i, s.key, d, home)
			}
		}
	}
	if live != len(model) {
		t.Fatalf("%d occupied slots, model has %d keys", live, len(model))
	}
	if 2*live > len(tab.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", live, len(tab.slots))
	}
	return maxProbe
}

// Random Get/Delete against a map, invariants after every step, over a key
// space small enough that keys repeat and clusters form.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[queue]
		model := map[Key]*Entry[queue]{}
		var keys []Key
		for step := 0; step < 2000; step++ {
			if len(keys) == 0 || rng.Intn(100) < 55 {
				k := Key{Table: rng.Intn(2), Key: uint64(rng.Intn(300)) * 8}
				if rng.Intn(8) == 0 {
					k.Key |= 1 << 63
				}
				e := tab.Get(k, k.Hash())
				if want, ok := model[k]; ok && want != e {
					t.Fatalf("seed %d step %d: Get(%v) returned a second entry for a live key", seed, step, k)
				} else if !ok {
					if e.Q != (queue{}) {
						t.Fatalf("seed %d step %d: new entry for %v carries a recycled queue", seed, step, k)
					}
					e.Q.head = new(int) // something for Delete to clear
					model[k] = e
					keys = append(keys, k)
				}
			} else {
				i := rng.Intn(len(keys))
				k := keys[i]
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				tab.Delete(model[k])
				delete(model, k)
			}
			check(t, &tab, model)
		}
		for _, k := range keys {
			tab.Delete(model[k])
			delete(model, k)
		}
		check(t, &tab, model)
	}
}

// keysHomedAt returns n distinct keys whose hash has the given top bits.
func keysHomedAt(top uint64, bits uint, n int) []Key {
	var out []Key
	for k := uint64(0); len(out) < n; k++ {
		if key := (Key{Key: k}); key.Hash()>>(64-bits) == top {
			out = append(out, key)
		}
	}
	return out
}

// A cluster that starts in the last slot and wraps to the front: deleting
// its first key must shift the wrapped ones back across the end of the
// array, and deleting a wrapped one must not disturb a key at its home.
func TestDeleteShiftsAcrossWrap(t *testing.T) {
	var tab Table[queue]
	model := map[Key]*Entry[queue]{}
	// Top three bits 111: home 3 of 4 slots, home 7 once the third insert
	// has doubled the array — while the first two are live.
	last := keysHomedAt(7, 3, 3)
	first := keysHomedAt(0, 3, 1)[0]
	for _, k := range append(last, first) {
		model[k] = tab.Get(k, k.Hash())
	}
	if len(tab.slots) != 8 {
		t.Fatalf("%d slots after four inserts, want 8", len(tab.slots))
	}
	// Slots now: 7 ← last[0]; 0, 1 ← last[1], last[2] (wrapped); 2 ← first
	// (displaced from its home 0).
	if got := check(t, &tab, model); got != 2 {
		t.Fatalf("longest probe %d, want 2 (the cluster wraps)", got)
	}
	tab.Delete(model[last[0]])
	delete(model, last[0])
	if got := check(t, &tab, model); got != 1 {
		t.Fatalf("longest probe %d after deleting the head of the wrapped cluster, want 1", got)
	}
	if tab.slots[7].key != last[1] || tab.slots[0].key != last[2] || tab.slots[1].key != first {
		t.Fatalf("cluster did not shift back across the wrap: %v", tab.slots)
	}
	tab.Delete(model[last[2]])
	delete(model, last[2])
	if check(t, &tab, model); tab.slots[0].key != first {
		t.Fatal("key was not pulled back to its home slot")
	}
}

// What one ORTHRUS shard sees: record keys congruent modulo the partition
// count, plus stripe keys that differ from record keys only in bit 63.
// Indexing by the low bits of the key would pile them up; the mixed hash's
// high bits must not.
func TestCongruentAndStripeKeysSpread(t *testing.T) {
	var tab Table[queue]
	model := map[Key]*Entry[queue]{}
	for j := uint64(0); j < 10_000; j++ {
		for _, k := range []Key{{Key: 8*j + 3}, {Key: 1<<63 | j}} {
			model[k] = tab.Get(k, k.Hash())
		}
	}
	if got := check(t, &tab, model); got > 12 {
		t.Fatalf("longest probe %d over %d keys in %d slots, want ≤ 12", got, len(model), len(tab.slots))
	}
	for _, e := range model {
		tab.Delete(e)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after deleting every key", tab.Len())
	}
}

// Entries come back from the free list and the array never shrinks, so a
// table that has seen its population's high-water mark allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var tab Table[queue]
	var es [10]*Entry[queue]
	cycle := func() {
		for i := range es {
			k := Key{Key: uint64(i) * 8}
			es[i] = tab.Get(k, k.Hash())
		}
		for _, e := range es {
			tab.Delete(e)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocations per ten-key cycle, want 0", n)
	}
}

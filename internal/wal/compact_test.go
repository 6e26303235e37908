package wal

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// compactDB is the schema the compaction cases run over: a fixed table of
// 16 eight-byte rows and an unordered growable table.
func compactDB() *storage.DB {
	db := storage.NewDB()
	db.Create(storage.Layout{Name: "fixed", NumRecords: 16, RecordSize: 8})
	db.Create(storage.Layout{Name: "grow", RecordSize: 8, Growable: true})
	return db
}

// put is one write of v to (table, key).
func put(table int32, key uint64, v int64) redoWrite {
	val := make([]byte, 8)
	storage.PutI64(val, 0, v)
	return redoWrite{table: table, key: key, val: val}
}

// seg encodes records into one segment; recs[i] is LSN lsns[i]'s writes.
func seg(lsns []uint64, recs ...[]redoWrite) []byte {
	var b []byte
	for i, lsn := range lsns {
		b = appendRecord(b, lsn, recs[i])
	}
	return b
}

// fixedSeg is a segment of one-write records, LSN n writing n to fixed
// key n%16.
func fixedSeg(lsns ...uint64) []byte {
	recs := make([][]redoWrite, len(lsns))
	for i, lsn := range lsns {
		recs[i] = []redoWrite{put(0, lsn%16, int64(lsn))}
	}
	return seg(lsns, recs...)
}

// sealedAbove keeps the segments holding an LSN above lsn, as
// Device.Sealed does.
func sealedAbove(segs [][]byte, lsn uint64) [][]byte {
	var out [][]byte
	for _, s := range segs {
		var max uint64
		for data := s; len(data) > 0; {
			l, _, n, ok := decodeRecord(data)
			if !ok {
				break
			}
			if l > max {
				max = l
			}
			data = data[n:]
		}
		if max > lsn {
			out = append(out, s)
		}
	}
	return out
}

// An image compacted to LSN L, restored onto the base database, must be
// byte for byte what Replay of the same log leaves, and L must be
// Replay's AppliedLSN: Compact and Replay select one prefix. A prior image
// is compacted from the first segments and reloaded from the store, as a
// new session's first checkpoint does, before the second compaction.
func TestCompactMatchesReplay(t *testing.T) {
	var rewrites [][]byte // 400 records over 16 keys, each rewritten ~25×
	var cur []uint64
	for lsn := uint64(1); lsn <= 400; lsn++ {
		cur = append(cur, lsn)
		if len(cur) == 20 {
			rewrites = append(rewrites, fixedSeg(cur...))
			cur = nil
		}
	}
	cases := []struct {
		name  string
		segs  [][]byte
		prior int // segments the prior image is compacted from
	}{
		{"no-prior-image", [][]byte{fixedSeg(1, 2, 3), fixedSeg(4, 5, 17)}, 0},
		{"prior-image-plus-tail", [][]byte{fixedSeg(1, 2, 3), fixedSeg(4, 5, 6), fixedSeg(7, 8, 19)}, 1},
		{"later-segment-carries-earlier-lsn", [][]byte{fixedSeg(1, 2, 4), fixedSeg(3, 5), fixedSeg(6, 18)}, 1},
		{"gap", [][]byte{fixedSeg(1, 2), fixedSeg(4, 5)}, 0},
		{"check-insert-fails", [][]byte{fixedSeg(1, 2), seg([]uint64{3}, []redoWrite{put(0, 99, 3)}), fixedSeg(4)}, 0},
		{"growable-inserts", [][]byte{
			seg([]uint64{1, 2}, []redoWrite{put(1, 100, 1), put(0, 1, 1)}, []redoWrite{put(1, 200, 2)}),
			seg([]uint64{3, 4}, []redoWrite{put(1, 100, 3)}, []redoWrite{put(1, 300, 4), put(1, 200, 4)}),
			seg([]uint64{5, 6}, []redoWrite{put(1, 400, 5)}, []redoWrite{put(1, 300, 6)}),
		}, 1},
		{"per-key-rewrites", rewrites, len(rewrites) / 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := NewMemCheckpointStore()
			compact := func(segs [][]byte) Manifest {
				t.Helper()
				var img Image
				if err := img.Load(store, compactDB()); err != nil {
					t.Fatal(err)
				}
				w, _ := store.Begin()
				m, _, err := Compact(&img, sealedAbove(segs, img.LSN()), w)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(&m); err != nil {
					t.Fatal(err)
				}
				return m
			}
			if c.prior > 0 {
				compact(c.segs[:c.prior])
			}
			m := compact(c.segs)
			got := compactDB()
			rec, err := Recover(store, nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.UsedCheckpoint || rec.StartLSN != m.StartLSN {
				t.Fatalf("recovery used checkpoint %t at LSN %d, want the image at %d", rec.UsedCheckpoint, rec.StartLSN, m.StartLSN)
			}
			want := compactDB()
			st := Replay(c.segs, 0, want)
			if m.StartLSN != st.AppliedLSN {
				t.Fatalf("image at LSN %d, replay applied through %d", m.StartLSN, st.AppliedLSN)
			}
			requireSameDB(t, got, want)
		})
	}
}

// requireSameDB compares compactDB databases byte for byte: every fixed
// row, and the growable table's size and rows.
func requireSameDB(t *testing.T, got, want *storage.DB) {
	t.Helper()
	for k := uint64(0); k < 16; k++ {
		if !bytes.Equal(got.Table(0).Get(k), want.Table(0).Get(k)) {
			t.Fatalf("fixed key %d: image %v, replay %v", k, got.Table(0).Get(k), want.Table(0).Get(k))
		}
	}
	if g, w := got.Table(1).Len(), want.Table(1).Len(); g != w {
		t.Fatalf("grow table: image holds %d rows, replay %d", g, w)
	}
	for _, k := range []uint64{100, 200, 300, 400} {
		if !bytes.Equal(got.Table(1).Get(k), want.Table(1).Get(k)) {
			t.Fatalf("grow key %d: image %v, replay %v", k, got.Table(1).Get(k), want.Table(1).Get(k))
		}
	}
}

// A table created after the image was loaded joins it at the next
// compaction.
func TestCompactSeesTablesCreatedAfterLoad(t *testing.T) {
	db := compactDB()
	var img Image
	if err := img.Load(NewMemCheckpointStore(), db); err != nil {
		t.Fatal(err)
	}
	late := db.Create(storage.Layout{Name: "late", NumRecords: 4, RecordSize: 8})
	segs := [][]byte{seg([]uint64{1}, []redoWrite{put(int32(late), 3, 7)})}
	m, _, err := Compact(&img, segs, discardWriter{})
	if err != nil {
		t.Fatal(err)
	}
	if m.StartLSN != 1 || len(m.Tables) != 3 || m.Tables[late].Records != 1 {
		t.Fatalf("manifest %+v: want LSN 1 and one record in table %d", m, late)
	}
}

// Compaction over segments the log keeps reusing allocates only for keys
// new to the image, and for the manifest.
func TestCompactSteadyStateAllocs(t *testing.T) {
	segs := [][]byte{fixedSeg(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
	var img Image
	if err := img.Load(NewMemCheckpointStore(), compactDB()); err != nil {
		t.Fatal(err)
	}
	w := discardWriter{}
	if _, _, err := Compact(&img, segs, w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		img.lsn = 0 // re-fold the same records
		if _, _, err := Compact(&img, segs, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%v allocs per compaction, want ≤ 1 (the manifest's table list)", allocs)
	}
}

// discardWriter is a CheckpointWriter that keeps nothing.
type discardWriter struct{}

func (discardWriter) Page([]byte) error      { return nil }
func (discardWriter) Commit(*Manifest) error { return nil }
func (discardWriter) Abort()                 {}

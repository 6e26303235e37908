package wal

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// fuzzImage builds a small valid log image to seed the corpus: three
// records with in-range and out-of-range contents, so mutations start
// from bytes that exercise the full decode path.
func fuzzImage() []byte {
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	img := appendRecord(nil, 1, []redoWrite{{table: 0, key: 0, val: val}})
	img = appendRecord(img, 2, []redoWrite{
		{table: 0, key: 1, val: val},
		{table: 0, key: 2, val: nil},
	})
	img = appendRecord(img, 3, []redoWrite{{table: 1, key: 99, val: val}})
	return img
}

// FuzzWALReplay feeds arbitrary (truncated, bit-flipped, synthesized)
// log images to Replay and asserts the recovery contract: it never
// panics, never applies more records than it scanned, keeps the applied
// count and frontier consistent, and a clean full image of n records
// applies exactly n. Corruption may surface as a torn scan, never as a
// crash — recovery runs on exactly the bytes a crash left behind.
func FuzzWALReplay(f *testing.F) {
	img := fuzzImage()
	f.Add(img)
	f.Add(img[:len(img)-3])   // torn tail
	f.Add(img[recHeader:])    // missing head record: LSN prefix gap
	f.Add([]byte{})           // empty image
	f.Add([]byte{0xA1, 0x57}) // magic fragment
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// Valid manifest bytes, so mutations explore the manifest decoder too.
	f.Add(EncodeManifest(&Manifest{StartLSN: 3, TailLSN: 5, Tables: []TableImage{
		{Table: 0, Pages: 1, Records: 2, CRC: 7},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := storage.NewDB()
		db.Create(storage.Layout{Name: "t", NumRecords: 8, RecordSize: 8})
		st := Replay([][]byte{data}, 0, 1, db)
		if st.Applied > st.Scanned {
			t.Fatalf("applied %d of %d scanned", st.Applied, st.Scanned)
		}
		if st.Applied < 0 || st.Scanned < 0 {
			t.Fatalf("negative stats: %+v", st)
		}
		// LSNs start at 1 and the applied set is the contiguous prefix,
		// so the frontier always equals the applied count.
		if st.AppliedLSN != uint64(st.Applied) {
			t.Fatalf("frontier %d does not match applied count %d", st.AppliedLSN, st.Applied)
		}

		// Segmented replay above an arbitrary checkpoint LSN: chop the
		// same bytes into segments at arbitrary points (harsher than
		// production, where rotation only happens at record boundaries)
		// and replay in parallel. The contract is unchanged: never panic,
		// and the frontier is an exact continuation of the checkpoint.
		var after uint64
		if len(data) > 0 {
			after = uint64(data[0] % 5)
		}
		var segs [][]byte
		for beg := 0; beg < len(data); beg += 37 {
			end := beg + 37
			if end > len(data) {
				end = len(data)
			}
			segs = append(segs, data[beg:end])
		}
		db2 := storage.NewDB()
		db2.Create(storage.Layout{Name: "t", NumRecords: 8, RecordSize: 8})
		st2 := Replay(segs, after, 2, db2)
		if st2.Applied > st2.Scanned || st2.Skipped > st2.Scanned {
			t.Fatalf("segmented stats inconsistent: %+v", st2)
		}
		if st2.Applied > 0 && st2.AppliedLSN != after+uint64(st2.Applied) {
			t.Fatalf("segmented frontier %d does not continue from %d with %d applied",
				st2.AppliedLSN, after, st2.Applied)
		}
		if st2.Applied == 0 && st2.AppliedLSN != 0 {
			t.Fatalf("nothing applied but frontier is %d", st2.AppliedLSN)
		}

		// Manifest decoding on arbitrary bytes: never panics, and success
		// implies a structurally consistent result.
		if m, err := DecodeManifest(data); err == nil {
			if m == nil {
				t.Fatal("DecodeManifest returned nil manifest without error")
			}
			if reenc := EncodeManifest(m); !bytes.Equal(reenc, data) {
				t.Fatal("decoded manifest does not re-encode to its input")
			}
		}
	})
}

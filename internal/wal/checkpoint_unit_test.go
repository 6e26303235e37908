package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// buildPage seals one page holding count records for table.
func buildPage(t *testing.T, table, count int, salt byte) []byte {
	t.Helper()
	var b PageBuilder
	b.Reset(table)
	for i := 0; i < count; i++ {
		val := bytes.Repeat([]byte{salt + byte(i)}, 8)
		b.Add(uint64(i), val)
	}
	page := append([]byte(nil), b.Seal()...)
	if page == nil {
		t.Fatal("Seal returned nil for a non-empty page")
	}
	return page
}

func TestPageRoundTrip(t *testing.T) {
	page := buildPage(t, 3, 5, 0x10)
	table, count, crc, ok := verifyPage(page)
	if !ok || table != 3 || count != 5 || crc == 0 {
		t.Fatalf("verify: table=%d count=%d crc=%d ok=%v", table, count, crc, ok)
	}
	var keys []uint64
	_, n, err := DecodePage(page, func(key uint64, val []byte) error {
		keys = append(keys, key)
		if want := bytes.Repeat([]byte{0x10 + byte(key)}, 8); !bytes.Equal(val, want) {
			t.Fatalf("key %d: val %x, want %x", key, val, want)
		}
		return nil
	})
	if err != nil || n != 5 || len(keys) != 5 {
		t.Fatalf("decode: n=%d err=%v keys=%v", n, err, keys)
	}
}

// Any single-byte corruption of a page must fail verification — the CRC
// covers the header fields and the payload; the magic and the CRC field
// itself are checked structurally.
func TestPageCorruptionDetectedAtEveryByte(t *testing.T) {
	page := buildPage(t, 1, 3, 0x20)
	for i := range page {
		mut := append([]byte(nil), page...)
		mut[i] ^= 0xFF
		if _, _, _, ok := verifyPage(mut); ok {
			t.Fatalf("corruption at byte %d verified", i)
		}
	}
	for cut := 0; cut < len(page); cut++ {
		if _, _, _, ok := verifyPage(page[:cut]); ok {
			t.Fatalf("truncation at %d verified", cut)
		}
	}
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	m := &Manifest{StartLSN: 42, TailLSN: 99, Tables: []TableImage{
		{Table: 0, Pages: 2, Records: 11, CRC: 0xDEAD},
		{Table: 3, Pages: 1, Records: 7, CRC: 0xBEEF},
	}}
	enc := EncodeManifest(m)
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.StartLSN != 42 || dec.TailLSN != 99 || len(dec.Tables) != 2 ||
		dec.Tables[1] != m.Tables[1] {
		t.Fatalf("roundtrip mismatch: %+v", dec)
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xFF
		if _, err := DecodeManifest(mut); err == nil {
			t.Fatalf("corruption at byte %d decoded", i)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeManifest(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// The per-table CRC folds page CRCs in order, so page reordering — which
// individual page CRCs cannot see — must change the fold.
func TestFoldPageCRCDetectsReordering(t *testing.T) {
	a := buildPage(t, 0, 2, 0x30)
	b := buildPage(t, 0, 2, 0x40)
	ab := FoldPageCRC(FoldPageCRC(0, a), b)
	ba := FoldPageCRC(FoldPageCRC(0, b), a)
	if ab == ba {
		t.Fatal("fold CRC is order-insensitive")
	}
}

// commitCheckpoint writes one single-page checkpoint through the store.
func commitCheckpoint(t *testing.T, s CheckpointStore, start, tail uint64, salt byte) {
	t.Helper()
	w, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	page := buildPage(t, 0, 4, salt)
	if err := w.Page(page); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{StartLSN: start, TailLSN: tail, Tables: []TableImage{
		{Table: 0, Pages: 1, Records: 4, CRC: FoldPageCRC(0, page)},
	}}
	if err := w.Commit(m); err != nil {
		t.Fatal(err)
	}
}

func TestMemCheckpointStoreRetainsTwoAndFallsBack(t *testing.T) {
	s := NewMemCheckpointStore()
	if ck, err := s.Load(); err != nil || ck != nil {
		t.Fatalf("empty store: ck=%v err=%v", ck, err)
	}
	commitCheckpoint(t, s, 10, 12, 0x01)
	commitCheckpoint(t, s, 20, 22, 0x02)
	commitCheckpoint(t, s, 30, 33, 0x03)
	if s.Count() != 2 {
		t.Fatalf("retained %d, want 2", s.Count())
	}
	ck, err := s.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 30 {
		t.Fatalf("load newest: %+v err=%v", ck, err)
	}
	s.CorruptNewestManifest()
	ck, err = s.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
		t.Fatalf("fallback after manifest corruption: %+v err=%v", ck, err)
	}
	s.DropNewest() // drops the corrupted one
	ck, err = s.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
		t.Fatalf("load after drop: %+v err=%v", ck, err)
	}
	s.CorruptNewestPage()
	if ck, err := s.Load(); err != nil || ck != nil {
		t.Fatalf("store with only a page-corrupt checkpoint must load none: %+v err=%v", ck, err)
	}
}

func TestDirCheckpointStoreRetainsTwoAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := s.Load(); err != nil || ck != nil {
		t.Fatalf("empty store: ck=%v err=%v", ck, err)
	}
	commitCheckpoint(t, s, 10, 12, 0x01)
	commitCheckpoint(t, s, 20, 22, 0x02)
	commitCheckpoint(t, s, 30, 33, 0x03)
	manifests, _ := filepath.Glob(filepath.Join(dir, "ck-*.manifest"))
	if len(manifests) != 2 {
		t.Fatalf("%d manifest files on disk, want 2", len(manifests))
	}
	// Reopen — committed checkpoints must survive the "restart".
	s2, err := OpenDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s2.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 30 {
		t.Fatalf("load newest after reopen: %+v err=%v", ck, err)
	}
	// Crash between pages and manifest: delete the newest manifest —
	// recovery must fall back to the previous checkpoint.
	newest := manifests[len(manifests)-1]
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
	ck, err = s2.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
		t.Fatalf("fallback after manifest removal: %+v err=%v", ck, err)
	}
	// A torn manifest (partial write, no rename) must be invisible: the
	// .tmp file is not a committed checkpoint.
	if err := os.WriteFile(filepath.Join(dir, "ck-00000099.manifest.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err = s2.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
		t.Fatalf("tmp manifest changed recovery: %+v err=%v", ck, err)
	}
	// An aborted checkpoint leaves no manifest behind.
	w, err := s2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Page(buildPage(t, 0, 1, 0x09)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	ck, err = s2.Load()
	if err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
		t.Fatalf("aborted checkpoint changed recovery: %+v err=%v", ck, err)
	}
}

// A manifest whose page set does not match — wrong fold CRC, wrong record
// count, or extra pages — must fail validation as a unit.
func TestValidateCheckpointRejectsMismatchedPages(t *testing.T) {
	page := buildPage(t, 0, 4, 0x05)
	good := &Manifest{StartLSN: 1, TailLSN: 2, Tables: []TableImage{
		{Table: 0, Pages: 1, Records: 4, CRC: FoldPageCRC(0, page)},
	}}
	if err := validateCheckpoint(good, [][]byte{page}); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	badCRC := *good
	badCRC.Tables = []TableImage{{Table: 0, Pages: 1, Records: 4, CRC: good.Tables[0].CRC + 1}}
	if err := validateCheckpoint(&badCRC, [][]byte{page}); err == nil {
		t.Fatal("wrong fold CRC accepted")
	}
	badCount := *good
	badCount.Tables = []TableImage{{Table: 0, Pages: 1, Records: 5, CRC: good.Tables[0].CRC}}
	if err := validateCheckpoint(&badCount, [][]byte{page}); err == nil {
		t.Fatal("wrong record count accepted")
	}
	if err := validateCheckpoint(good, [][]byte{page, page}); err == nil {
		t.Fatal("extra page accepted")
	}
	if err := validateCheckpoint(good, nil); err == nil {
		t.Fatal("missing page accepted")
	}
}

// A matching-but-unparseable manifest name must fail Open: silently
// treating it as sequence 0 would let Begin's O_TRUNC overwrite a live
// checkpoint's pages file while its manifest remains, invalidating it.
func TestOpenDirCheckpointStoreRejectsUnparseableNames(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ck-garbage.manifest"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDirCheckpointStore(dir); err == nil {
		t.Fatal("OpenDirCheckpointStore accepted an unparseable manifest name")
	}
}

// A MemCheckpointStore copies each checkpoint's pages into the buffers of
// the image its last Commit pruned: once two checkpoints have warmed it
// up, a Begin → Page×n → Commit cycle allocates the writer, the encoded
// manifest and its record, and no page. An image Load handed out is
// never recycled: its pages keep their bytes however many checkpoints
// follow.
func TestMemCheckpointStoreRecyclesPages(t *testing.T) {
	const n = 32
	pages := make([][]byte, n)
	var m *Manifest
	build := func(salt byte) {
		m = &Manifest{StartLSN: 1, TailLSN: 1, Tables: []TableImage{{Table: 0, Pages: n, Records: 4 * n}}}
		for i := range pages {
			pages[i] = buildPage(t, 0, 4, salt+byte(i))
			m.Tables[0].CRC = FoldPageCRC(m.Tables[0].CRC, pages[i])
		}
	}
	build(0)
	s := NewMemCheckpointStore()
	cycle := func() {
		w, _ := s.Begin()
		for _, p := range pages {
			w.Page(p)
		}
		w.Commit(m)
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 3 {
		t.Errorf("%.0f allocations per checkpoint of %d pages, want ≤ 3: the pages were not recycled", allocs, n)
	}

	ck, err := s.Load()
	if err != nil || ck == nil {
		t.Fatalf("load: %v err=%v", ck, err)
	}
	held := make([][]byte, n)
	for i, p := range ck.Pages {
		held[i] = append([]byte(nil), p...)
	}
	build(0x80)
	for i := 0; i < 4; i++ {
		cycle()
	}
	for i, p := range ck.Pages {
		if !bytes.Equal(p, held[i]) {
			t.Fatalf("page %d of an image Load returned was overwritten by a later checkpoint", i)
		}
	}
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// buildPage seals one page holding count records for table.
func buildPage(t *testing.T, table, count int, salt byte) []byte {
	t.Helper()
	var b pageBuilder
	b.reset(table)
	for i := 0; i < count; i++ {
		val := bytes.Repeat([]byte{salt + byte(i)}, 8)
		b.add(uint64(i), val)
	}
	page := append([]byte(nil), b.seal()...)
	if page == nil {
		t.Fatal("Seal returned nil for a non-empty page")
	}
	return page
}

func TestPageRoundTrip(t *testing.T) {
	page := buildPage(t, 3, 5, 0x10)
	table, count, ok := verifyPage(page)
	if !ok || table != 3 || count != 5 {
		t.Fatalf("verify: table=%d count=%d ok=%v", table, count, ok)
	}
	db := storage.NewDB()
	for i := 0; i < 3; i++ {
		db.Create(storage.Layout{Name: fmt.Sprint(i), NumRecords: 8, RecordSize: 8})
	}
	ck := &Checkpoint{Pages: [][]byte{page}}
	// A page for a table the database does not hold fails before any of
	// its records is handed out.
	if err := ck.Records(db, func(int, uint64, []byte) error {
		t.Fatal("record of an out-of-range page reached fn")
		return nil
	}); err == nil {
		t.Fatal("page for table 3 decoded against 3 tables")
	}
	db.Create(storage.Layout{Name: "3", NumRecords: 8, RecordSize: 8})
	var keys []uint64
	err := ck.Records(db, func(table int, key uint64, val []byte) error {
		if table != 3 {
			t.Fatalf("key %d: table %d, want 3", key, table)
		}
		keys = append(keys, key)
		if want := bytes.Repeat([]byte{0x10 + byte(key)}, 8); !bytes.Equal(val, want) {
			t.Fatalf("key %d: val %x, want %x", key, val, want)
		}
		return nil
	})
	if err != nil || len(keys) != 5 {
		t.Fatalf("decode: err=%v keys=%v", err, keys)
	}
}

// A page is hashed once per load: a checkpoint openCheckpoint returns is
// marked verified and decodes without a second CRC pass, while a
// hand-built one is verified in full, so a page whose structure is intact
// but whose payload is corrupt is still rejected.
func TestRecordsVerifiesUnopenedCheckpoints(t *testing.T) {
	page := buildPage(t, 0, 4, 0x30)
	db := storage.NewDB()
	db.Create(storage.Layout{Name: "0", NumRecords: 8, RecordSize: 8})
	count := func(ck *Checkpoint) (int, error) {
		n := 0
		err := ck.Records(db, func(int, uint64, []byte) error { n++; return nil })
		return n, err
	}

	corrupt := append([]byte(nil), page...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if _, _, ok := pageShape(corrupt); !ok {
		t.Fatal("a flipped payload byte broke the page's structure; the case tests nothing")
	}
	if n, err := count(&Checkpoint{Pages: [][]byte{corrupt}}); err == nil {
		t.Fatalf("hand-built checkpoint with a corrupt page decoded %d records", n)
	}

	m := &Manifest{StartLSN: 1, Tables: []TableImage{{Table: 0, Pages: 1, Records: 4, CRC: foldPageCRC(0, page)}}}
	ck, err := openCheckpoint(encodeManifest(m), [][]byte{page})
	if err != nil || ck == nil || !ck.verified {
		t.Fatalf("openCheckpoint = %+v, %v; want a verified checkpoint", ck, err)
	}
	if n, err := count(ck); err != nil || n != 4 {
		t.Fatalf("opened checkpoint decoded %d records, err %v; want 4", n, err)
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
		if _, _, ok := verifyPage(mut); ok {
			t.Fatalf("corruption at byte %d verified", i)
		}
	}
	for cut := 0; cut < len(page); cut++ {
		if _, _, ok := verifyPage(page[:cut]); ok {
			t.Fatalf("truncation at %d verified", cut)
		}
	}
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	m := &Manifest{StartLSN: 42, Tables: []TableImage{
		{Table: 0, Pages: 2, Records: 11, CRC: 0xDEAD},
		{Table: 3, Pages: 1, Records: 7, CRC: 0xBEEF},
	}}
	enc := encodeManifest(m)
	dec, err := decodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.StartLSN != 42 || len(dec.Tables) != 2 ||
		dec.Tables[1] != m.Tables[1] {
		t.Fatalf("roundtrip mismatch: %+v", dec)
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xFF
		if _, err := decodeManifest(mut); err == nil {
			t.Fatalf("corruption at byte %d decoded", i)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeManifest(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// encodeManifestAs re-encodes m under another version number, with extra
// after StartLSN (version 1's second LSN word) and a CRC that holds: an
// intact manifest in an encoding decodeManifest does not read.
func encodeManifestAs(m *Manifest, version uint32, extra []byte) []byte {
	enc := encodeManifest(m)
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), enc[:4]...), version)
	out = append(append(append(out, enc[8:16]...), extra...), enc[16:len(enc)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// encodeManifestV1 is the version-1 encoding of m, whose second LSN word
// compaction always wrote equal to StartLSN.
func encodeManifestV1(m *Manifest) []byte {
	return encodeManifestAs(m, 1, binary.LittleEndian.AppendUint64(nil, m.StartLSN))
}

// An intact manifest in another encoding — version 1, or any version
// this package does not know — is not a torn file: both stores' Load,
// Image.Load and Recover fail with ErrManifestVersion instead of falling
// back past it. Falling back could reach an image, or LSN 0, below which
// the log is already truncated, and recover the base state without error.
func TestManifestOfAnotherVersionFailsLoad(t *testing.T) {
	page := buildPage(t, 0, 4, 0x07)
	m := &Manifest{StartLSN: 30, Tables: []TableImage{{Table: 0, Pages: 1, Records: 4, CRC: foldPageCRC(0, page)}}}
	versions := []struct {
		name string
		enc  []byte
	}{
		{"v1", encodeManifestV1(m)},
		{"v0", encodeManifestAs(m, 0, nil)},
		{"v3", encodeManifestAs(m, 3, nil)},
	}
	db := storage.NewDB()
	db.Create(storage.Layout{Name: "t", NumRecords: 8, RecordSize: 8})
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			if _, err := decodeManifest(v.enc); !errors.Is(err, ErrManifestVersion) {
				t.Fatalf("decode: err=%v, want ErrManifestVersion", err)
			}

			mem := NewMemCheckpointStore()
			commitCheckpoint(t, mem, 20, 0x02) // a valid older image to fall back to
			mem.committed = append(mem.committed, &memCheckpoint{manifest: v.enc, pages: [][]byte{page}})

			dir := t.TempDir()
			disk, err := OpenDirCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			commitCheckpoint(t, disk, 20, 0x02)
			if err := os.WriteFile(filepath.Join(dir, ckName(1, "pages")), page, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ckName(1, "manifest")), v.enc, 0o644); err != nil {
				t.Fatal(err)
			}

			for _, s := range []CheckpointStore{mem, disk} {
				if ck, err := s.Load(); !errors.Is(err, ErrManifestVersion) || ck != nil {
					t.Fatalf("%T.Load: ck=%+v err=%v, want ErrManifestVersion", s, ck, err)
				}
				var img Image
				if err := img.Load(s, db); !errors.Is(err, ErrManifestVersion) {
					t.Fatalf("Image.Load over %T: err=%v, want ErrManifestVersion", s, err)
				}
				if st, err := Recover(s, nil, db); !errors.Is(err, ErrManifestVersion) || st.UsedCheckpoint {
					t.Fatalf("Recover over %T: %+v err=%v, want ErrManifestVersion", s, st, err)
				}
			}

			// The same bytes torn are skipped like any torn manifest.
			torn := append([]byte(nil), v.enc...)
			torn[len(torn)/2] ^= 0xFF
			mem.committed[len(mem.committed)-1].manifest = torn
			if ck, err := mem.Load(); err != nil || ck == nil || ck.Manifest.StartLSN != 20 {
				t.Fatalf("torn manifest: ck=%+v err=%v, want the image at 20", ck, err)
			}
		})
	}
}

// The per-table CRC folds page CRCs in order, so page reordering — which
// individual page CRCs cannot see — must change the fold.
func TestFoldPageCRCDetectsReordering(t *testing.T) {
	a := buildPage(t, 0, 2, 0x30)
	b := buildPage(t, 0, 2, 0x40)
	ab := foldPageCRC(foldPageCRC(0, a), b)
	ba := foldPageCRC(foldPageCRC(0, b), a)
	if ab == ba {
		t.Fatal("fold CRC is order-insensitive")
	}
}

// commitCheckpoint writes one single-page checkpoint through the store.
func commitCheckpoint(t *testing.T, s CheckpointStore, start uint64, salt byte) {
	t.Helper()
	w, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	page := buildPage(t, 0, 4, salt)
	if err := w.Page(page); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{StartLSN: start, Tables: []TableImage{
		{Table: 0, Pages: 1, Records: 4, CRC: foldPageCRC(0, page)},
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
	commitCheckpoint(t, s, 10, 0x01)
	commitCheckpoint(t, s, 20, 0x02)
	commitCheckpoint(t, s, 30, 0x03)
	if n := len(s.Manifests()); n != 2 {
		t.Fatalf("retained %d, want 2", n)
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
	commitCheckpoint(t, s, 10, 0x01)
	commitCheckpoint(t, s, 20, 0x02)
	commitCheckpoint(t, s, 30, 0x03)
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
	good := &Manifest{StartLSN: 1, Tables: []TableImage{
		{Table: 0, Pages: 1, Records: 4, CRC: foldPageCRC(0, page)},
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
		m = &Manifest{StartLSN: 1, Tables: []TableImage{{Table: 0, Pages: n, Records: 4 * n}}}
		for i := range pages {
			pages[i] = buildPage(t, 0, 4, salt+byte(i))
			m.Tables[0].CRC = foldPageCRC(m.Tables[0].CRC, pages[i])
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

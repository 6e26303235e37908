package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/storage"
)

// Checkpoint image format.
//
// A checkpoint is a set of CRC'd pages — each page a run of (key, value)
// records for one table — plus a manifest committed atomically last.
// Compact builds the image from the log alone: from the previous image at
// LSN P, it keeps the last write of every (table, key) over the sealed
// segments' contiguous LSN prefix P+1..L. Every redo record holds whole
// after-images, so the result is exact as of L, the one LSN the manifest
// records (StartLSN), and recovery replays the log above it.
//
// The manifest also records, per table, the page count, record count and
// a CRC folded over the pages' CRCs, so a checkpoint whose pages were
// torn or reordered fails validation as a unit and recovery falls back
// to the previous checkpoint.

// Page wire format (little-endian):
//
//	magic      uint16  — pageMagic
//	reserved   uint16
//	table      uint32  — DB table index
//	count      uint32  — records in the payload
//	payloadLen uint32  — payload bytes following the header
//	crc        uint32  — CRC-32C over header[2:16] + payload
//	payload    — count × (key uint64 | valLen uint32 | val)
const (
	pageMagic  = 0x57A2
	pageHeader = 20
)

// manifestMagic/manifestVersion head the manifest encoding. Version 1
// carried a second LSN, always equal to StartLSN since compaction.
const (
	manifestMagic   = 0x4F434B50 // "OCKP"
	manifestVersion = 2
	manifestHeader  = 20 // magic + version + startLSN + nTables
	tableImageSize  = 20 // table + pages + records + crc
)

// ErrManifestVersion is returned by a store's Load for a manifest,
// intact by its CRC, in an encoding this package does not read. Load does
// not fall back past it as past a torn one: the log may already be
// truncated below its image.
var ErrManifestVersion = errors.New("wal: unknown checkpoint manifest version")

// TableImage is one table's slice of a checkpoint: how many pages and
// records the image holds for it, and a CRC folded over those pages'
// CRCs in order.
type TableImage struct {
	Table   int
	Pages   int
	Records uint64
	CRC     uint32
}

// Manifest describes one committed checkpoint: StartLSN is the LSN the
// image is exact as of, and Tables its per-table page summaries.
type Manifest struct {
	StartLSN uint64
	Tables   []TableImage
}

// Checkpoint is a loaded, validated checkpoint image.
type Checkpoint struct {
	Manifest Manifest
	Pages    [][]byte
	// verified marks pages whose CRCs openCheckpoint has checked, so
	// Records does not hash them a second time.
	verified bool
}

// CheckpointWriter receives one checkpoint's pages and then either
// commits them under a manifest or abandons them. Commit is the atomic
// publication point: a checkpoint with no durable manifest does not
// exist as far as Load is concerned.
type CheckpointWriter interface {
	Page(p []byte) error
	Commit(m *Manifest) error
	Abort()
}

// CheckpointStore persists checkpoints. Load returns the newest
// checkpoint that validates (manifest decodes, page CRCs match, per-table
// folds match) — falling back past a torn or corrupt newest checkpoint to
// the previous one, but not past ErrManifestVersion — or (nil, nil) when
// no valid checkpoint exists. Stores retain the two newest committed
// checkpoints so that truncating the log below the previous checkpoint's
// LSN (see the truncation rule in engine.Checkpointer) never strands
// recovery without a usable image.
type CheckpointStore interface {
	Begin() (CheckpointWriter, error)
	Load() (*Checkpoint, error)
}

// checkpointsRetained is the store retention count; see CheckpointStore.
const checkpointsRetained = 2

// pageRecords is how many records Compact puts on one page.
const pageRecords = 256

// Image is a checkpoint image held between compactions: for every
// (table, key) the log wrote at or below LSN, the bytes of its last
// write. Load fills an Image from a store and Compact advances it; the
// zero value is not loaded.
type Image struct {
	db     *storage.DB
	lsn    uint64
	gen    uint32 // compactions so far; Load's rows carry 1
	tables []imageTable
	scan   logScan
	page   pageBuilder
}

// imageTable is one table's slice of an Image. A fixed table's rows sit
// in one arena indexed by key, allocated at the table's first write, and
// gens[k] says which compaction last wrote row k (0: none yet). A
// growable table's rows sit in a map.
type imageTable struct {
	n, size uint64 // fixed tables' row count and row size; size 0 marks a growable table
	rows    []byte
	gens    []uint32
	grow    map[uint64]*growRow
}

type growRow struct {
	gen uint32
	val []byte
}

// claim marks key as written by compaction gen and reports whether it
// was not yet. Compact claims a prefix's writes newest first and sets a
// key's row only on its first claim, so the write that lands is the
// key's last. Engines log whole rows (Appender.Note takes the live
// record, and collapses a transaction's repeated writes of one key), so
// the last write is the row.
func (t *imageTable) claim(key uint64, gen uint32) bool {
	if t.size == 0 {
		r := t.grow[key]
		if r == nil {
			r = &growRow{}
			t.grow[key] = r
		} else if r.gen == gen {
			return false
		}
		r.gen = gen
		return true
	}
	if t.gens == nil {
		t.rows, t.gens = make([]byte, t.n*t.size), make([]uint32, t.n)
	}
	if t.gens[key] == gen {
		return false
	}
	t.gens[key] = gen
	return true
}

// set makes val key's row; key must be claimed.
func (t *imageTable) set(key uint64, val []byte) {
	if t.size == 0 {
		r := t.grow[key]
		r.val = append(r.val[:0], val...)
		return
	}
	copy(t.row(key), val)
}

// row returns a fixed table's row for key.
func (t *imageTable) row(key uint64) []byte { return t.rows[key*t.size : (key+1)*t.size] }

// addTables extends the image to every table the database holds: tables
// can be created while a session runs.
func (img *Image) addTables() {
	for i := len(img.tables); i < img.db.NumTables(); i++ {
		var t imageTable
		tbl := img.db.Table(i)
		if _, grow := tbl.(*storage.GrowTable); grow {
			t.grow = make(map[uint64]*growRow)
		} else {
			t.n, t.size = tbl.Len(), uint64(tbl.RecordSize())
		}
		img.tables = append(img.tables, t)
	}
}

// Loaded reports whether Load has filled the image.
func (img *Image) Loaded() bool { return img.db != nil }

// LSN reports the LSN the image is exact as of.
func (img *Image) LSN() uint64 { return img.lsn }

// Load sets img to store's newest valid image over db's tables, at its
// manifest's StartLSN, or to the empty image at LSN 0 when the store has
// none. A session's first checkpoint must start here, not from LSN 0: an
// earlier session may have truncated the log below the stored image.
func (img *Image) Load(store CheckpointStore, db *storage.DB) error {
	ck, err := store.Load()
	if err != nil {
		return err
	}
	next := Image{db: db, gen: 1}
	next.addTables()
	if ck != nil {
		if err := ck.Records(db, func(table int, key uint64, val []byte) error {
			if err := storage.CheckInsert(db.Table(table), key, val); err != nil {
				return err
			}
			if t := &next.tables[table]; t.claim(key, next.gen) {
				t.set(key, val)
			}
			return nil
		}); err != nil {
			return err
		}
		next.lsn = ck.Manifest.StartLSN
	}
	*img = next
	return nil
}

// Compact advances a loaded image over segs, the log's sealed segments
// (Log.Sealed), and writes it to w as pages: one table after another,
// pageRecords records a page. It returns the manifest to commit and the
// page bytes written.
//
// The records folded in are exactly those Replay would apply over the
// image (logScan.prefix), the contiguous LSNs above it up to some L. The
// new image is exact as of L, so restoring it and replaying the log above
// L rebuilds what replaying the whole log does. The records are folded in
// newest first, so each key is copied once however often the log rewrote
// it. Decoding reuses the image's buffers: a compaction allocates only
// for a table's first write, for growable keys the image has not held
// before, and for the manifest.
func Compact(img *Image, segs [][]byte, w CheckpointWriter) (Manifest, uint64, error) {
	img.scan.scan(segs, img.db)
	img.addTables() // after the scan, which checked writes against the tables it saw
	apply, _ := img.scan.prefix(img.lsn)
	img.gen++
	for i := len(apply) - 1; i >= 0; i-- {
		r := apply[i]
		for _, ref := range img.scan.writes[r.lo:r.hi] {
			if t := &img.tables[ref.table]; t.claim(ref.key, img.gen) {
				t.set(ref.key, img.scan.val(r, ref))
			}
		}
	}
	if len(apply) > 0 {
		img.lsn = apply[len(apply)-1].lsn
	}
	img.scan.segs = nil // the segments belong to the device again

	m := Manifest{StartLSN: img.lsn, Tables: make([]TableImage, len(img.tables))}
	var bytes uint64
	for tid := range img.tables {
		ti := &m.Tables[tid]
		ti.Table = tid
		img.page.reset(tid)
		add := func(key uint64, val []byte) error {
			img.page.add(key, val)
			if img.page.count < pageRecords {
				return nil
			}
			return img.seal(w, ti, &bytes)
		}
		t := &img.tables[tid]
		for k, gen := range t.gens {
			if gen != 0 {
				if err := add(uint64(k), t.row(uint64(k))); err != nil {
					return m, bytes, err
				}
			}
		}
		for k, r := range t.grow {
			if err := add(k, r.val); err != nil {
				return m, bytes, err
			}
		}
		if err := img.seal(w, ti, &bytes); err != nil {
			return m, bytes, err
		}
	}
	return m, bytes, nil
}

// seal writes the page under construction, if it holds any record, folds
// it into ti and starts the next page of the same table.
func (img *Image) seal(w CheckpointWriter, ti *TableImage, bytes *uint64) error {
	n := img.page.count
	if n == 0 {
		return nil
	}
	page := img.page.seal()
	if err := w.Page(page); err != nil {
		return err
	}
	ti.Pages++
	ti.Records += uint64(n)
	ti.CRC = foldPageCRC(ti.CRC, page)
	*bytes += uint64(len(page))
	img.page.reset(ti.Table)
	return nil
}

// pageBuilder accumulates records for one table into a page. The zero
// value is unusable; call reset first. The builder reuses one buffer
// across pages, so the slice seal returns is valid only until the next
// reset — stores copy it.
type pageBuilder struct {
	buf   []byte
	table int
	count int // records on the page so far
}

// reset starts a fresh page for table, discarding any unsealed content.
func (b *pageBuilder) reset(table int) {
	b.buf = append(b.buf[:0], make([]byte, pageHeader)...)
	b.table = table
	b.count = 0
}

// add appends one record to the page, copying val.
func (b *pageBuilder) add(key uint64, val []byte) {
	var entry [12]byte
	binary.LittleEndian.PutUint64(entry[0:8], key)
	binary.LittleEndian.PutUint32(entry[8:12], uint32(len(val)))
	b.buf = append(b.buf, entry[:]...)
	b.buf = append(b.buf, val...)
	b.count++
}

// seal fills in the header and CRC and returns the encoded page. The
// returned slice aliases the builder's buffer.
func (b *pageBuilder) seal() []byte {
	h := b.buf
	payload := len(b.buf) - pageHeader
	binary.LittleEndian.PutUint16(h[0:2], pageMagic)
	binary.LittleEndian.PutUint16(h[2:4], 0)
	binary.LittleEndian.PutUint32(h[4:8], uint32(b.table))
	binary.LittleEndian.PutUint32(h[8:12], uint32(b.count))
	binary.LittleEndian.PutUint32(h[12:16], uint32(payload))
	crc := crc32.Checksum(h[2:16], crcTable)
	crc = crc32.Update(crc, crcTable, h[pageHeader:])
	binary.LittleEndian.PutUint32(h[16:20], crc)
	return b.buf
}

// foldPageCRC folds a sealed page's CRC into a per-table running fold —
// the value Manifest.Tables[i].CRC records. Folding the page CRCs in
// order (rather than summing them) makes the fold sensitive to page
// reordering as well as corruption.
func foldPageCRC(fold uint32, page []byte) uint32 {
	return crc32.Update(fold, crcTable, page[16:20])
}

// verifyPage checks a page's structure and CRC without decoding entries.
// It never panics on arbitrary input.
func verifyPage(p []byte) (table int, count int, ok bool) {
	if table, count, ok = pageShape(p); !ok {
		return 0, 0, false
	}
	crc := crc32.Checksum(p[2:16], crcTable)
	crc = crc32.Update(crc, crcTable, p[pageHeader:])
	if crc != binary.LittleEndian.Uint32(p[16:20]) {
		return 0, 0, false
	}
	return table, count, true
}

// pageShape checks a page's structure — magic, length, entry count —
// and returns its header fields. It never panics on arbitrary input.
func pageShape(p []byte) (table int, count int, ok bool) {
	if len(p) < pageHeader || binary.LittleEndian.Uint16(p[0:2]) != pageMagic {
		return 0, 0, false
	}
	payload := int(binary.LittleEndian.Uint32(p[12:16]))
	if payload < 0 || len(p) != pageHeader+payload {
		return 0, 0, false
	}
	count = int(binary.LittleEndian.Uint32(p[8:12]))
	if count*12 > payload {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(p[4:8])), count, true
}

// Records calls fn for every record of ck's pages, in page order, and
// stops at fn's first error. Each page is decoded once, and a page for a
// table db does not hold fails before any of its records reach fn. val
// aliases the page. It never panics on arbitrary pages. A checkpoint
// that openCheckpoint loaded has had its CRCs checked there, so only its
// structure is checked again here; any other is verified in full.
func (ck *Checkpoint) Records(db *storage.DB, fn func(table int, key uint64, val []byte) error) error {
	check := verifyPage
	if ck.verified {
		check = pageShape
	}
	for _, p := range ck.Pages {
		table, count, ok := check(p)
		if !ok {
			return errors.New("wal: invalid checkpoint page")
		}
		if table >= db.NumTables() {
			return fmt.Errorf("wal: checkpoint page for unknown table %d", table)
		}
		data := p[pageHeader:]
		for i := 0; i < count; i++ {
			if len(data) < 12 {
				return errors.New("wal: truncated checkpoint page entry")
			}
			key := binary.LittleEndian.Uint64(data[0:8])
			vlen := int(binary.LittleEndian.Uint32(data[8:12]))
			if vlen < 0 || len(data) < 12+vlen {
				return errors.New("wal: truncated checkpoint page value")
			}
			if err := fn(table, key, data[12:12+vlen:12+vlen]); err != nil {
				return err
			}
			data = data[12+vlen:]
		}
		if len(data) != 0 {
			return errors.New("wal: trailing bytes in checkpoint page")
		}
	}
	return nil
}

// encodeManifest serializes m. Layout: magic u32, version u32, startLSN
// u64, nTables u32, nTables × TableImage, crc u32 over all preceding
// bytes.
func encodeManifest(m *Manifest) []byte {
	buf := make([]byte, manifestHeader+len(m.Tables)*tableImageSize+4)
	binary.LittleEndian.PutUint32(buf[0:4], manifestMagic)
	binary.LittleEndian.PutUint32(buf[4:8], manifestVersion)
	binary.LittleEndian.PutUint64(buf[8:16], m.StartLSN)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(m.Tables)))
	p := buf[manifestHeader:]
	for _, t := range m.Tables {
		binary.LittleEndian.PutUint32(p[0:4], uint32(t.Table))
		binary.LittleEndian.PutUint32(p[4:8], uint32(t.Pages))
		binary.LittleEndian.PutUint64(p[8:16], t.Records)
		binary.LittleEndian.PutUint32(p[16:20], t.CRC)
		p = p[tableImageSize:]
	}
	crc := crc32.Checksum(buf[:len(buf)-4], crcTable)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc)
	return buf
}

// decodeManifest parses and validates a manifest encoding. It never
// panics on arbitrary input; any structural or checksum mismatch returns
// an error. It checks the checksum before the version, so that only an
// intact manifest returns ErrManifestVersion.
func decodeManifest(data []byte) (*Manifest, error) {
	if len(data) < 12 { // magic + version + crc
		return nil, errors.New("wal: manifest too short")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != manifestMagic {
		return nil, errors.New("wal: bad manifest magic")
	}
	crc := crc32.Checksum(data[:len(data)-4], crcTable)
	if crc != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("wal: manifest checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != manifestVersion {
		return nil, fmt.Errorf("%w %d", ErrManifestVersion, v)
	}
	if len(data) < manifestHeader+4 {
		return nil, errors.New("wal: manifest too short")
	}
	n := int(binary.LittleEndian.Uint32(data[16:20]))
	if n < 0 || len(data) != manifestHeader+n*tableImageSize+4 {
		return nil, errors.New("wal: manifest length mismatch")
	}
	m := &Manifest{
		StartLSN: binary.LittleEndian.Uint64(data[8:16]),
		Tables:   make([]TableImage, 0, n),
	}
	p := data[manifestHeader:]
	for i := 0; i < n; i++ {
		m.Tables = append(m.Tables, TableImage{
			Table:   int(binary.LittleEndian.Uint32(p[0:4])),
			Pages:   int(binary.LittleEndian.Uint32(p[4:8])),
			Records: binary.LittleEndian.Uint64(p[8:16]),
			CRC:     binary.LittleEndian.Uint32(p[16:20]),
		})
		p = p[tableImageSize:]
	}
	return m, nil
}

// validateCheckpoint cross-checks a manifest against its pages: page
// sequence grouped by table in manifest order, per-page CRCs valid, and
// per-table folds and record counts matching the manifest.
func validateCheckpoint(m *Manifest, pages [][]byte) error {
	idx := 0
	for _, t := range m.Tables {
		var fold uint32
		var records uint64
		for i := 0; i < t.Pages; i++ {
			if idx >= len(pages) {
				return errors.New("wal: checkpoint missing pages")
			}
			p := pages[idx]
			table, count, ok := verifyPage(p)
			if !ok {
				return errors.New("wal: corrupt checkpoint page")
			}
			if table != t.Table {
				return errors.New("wal: checkpoint page table mismatch")
			}
			fold = foldPageCRC(fold, p)
			records += uint64(count)
			idx++
		}
		if fold != t.CRC {
			return errors.New("wal: checkpoint table CRC mismatch")
		}
		if records != t.Records {
			return errors.New("wal: checkpoint table record count mismatch")
		}
	}
	if idx != len(pages) {
		return errors.New("wal: checkpoint has extra pages")
	}
	return nil
}

// openCheckpoint decodes and validates one stored checkpoint: nil for a
// torn or corrupt one, which Load falls back past.
func openCheckpoint(manifest []byte, pages [][]byte) (*Checkpoint, error) {
	m, err := decodeManifest(manifest)
	if errors.Is(err, ErrManifestVersion) {
		return nil, err
	}
	if err != nil || validateCheckpoint(m, pages) != nil {
		return nil, nil
	}
	return &Checkpoint{Manifest: *m, Pages: pages, verified: true}, nil
}

// splitPages re-splits a concatenation of sealed pages (the on-disk
// layout of DirCheckpointStore's pages file) into individual pages. It
// never panics on arbitrary input.
func splitPages(data []byte) ([][]byte, error) {
	var pages [][]byte
	for len(data) > 0 {
		if len(data) < pageHeader {
			return nil, errors.New("wal: truncated page stream")
		}
		payload := int(binary.LittleEndian.Uint32(data[12:16]))
		if payload < 0 || len(data) < pageHeader+payload {
			return nil, errors.New("wal: truncated page stream")
		}
		pages = append(pages, data[:pageHeader+payload:pageHeader+payload])
		data = data[pageHeader+payload:]
	}
	return pages, nil
}

// memCheckpoint is one committed checkpoint held by MemCheckpointStore,
// kept in encoded form so Load exercises the same decode/validate path a
// disk store does.
type memCheckpoint struct {
	manifest []byte
	pages    [][]byte
	// loaned is set once Load has handed the pages out, uncopied: they
	// may be read at any time after that, so this image's buffers are
	// never recycled.
	loaned bool
}

// MemCheckpointStore is an in-memory CheckpointStore for tests and
// experiments. Its crash-simulation helpers mutate the newest checkpoint
// the way a torn or corrupted commit would.
//
// Pages are recycled: the page buffers of an image that Commit prunes
// become the next writer's, and Page copies into them, so a store whose
// images keep their size allocates no page memory in steady state. An
// image Load returned is never recycled.
type MemCheckpointStore struct {
	mu        sync.Mutex
	committed []*memCheckpoint // oldest → newest, at most checkpointsRetained
	spare     [][]byte         // a pruned image's pages, for the next writer
}

// NewMemCheckpointStore returns an empty in-memory store.
func NewMemCheckpointStore() *MemCheckpointStore { return &MemCheckpointStore{} }

// Begin implements CheckpointStore. The writer takes the spare pages.
func (s *MemCheckpointStore) Begin() (CheckpointWriter, error) {
	s.mu.Lock()
	spare := s.spare
	s.spare = nil
	s.mu.Unlock()
	return &memCkWriter{store: s, pages: spare[:0]}, nil
}

// Load implements CheckpointStore.
func (s *MemCheckpointStore) Load() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.committed) - 1; i >= 0; i-- {
		mc := s.committed[i]
		ck, err := openCheckpoint(mc.manifest, mc.pages)
		mc.loaned = mc.loaned || ck != nil
		if ck != nil || err != nil {
			return ck, err
		}
	}
	return nil, nil
}

// Manifests decodes the retained manifests, oldest → newest, skipping
// any that no longer decode (after crash-simulation corruption).
func (s *MemCheckpointStore) Manifests() []Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Manifest, 0, len(s.committed))
	for _, ck := range s.committed {
		if m, err := decodeManifest(ck.manifest); err == nil {
			out = append(out, *m)
		}
	}
	return out
}

// DropNewest simulates a crash after the newest checkpoint's pages were
// written but before its manifest: the checkpoint vanishes as a unit
// (pages without a manifest are invisible to Load).
func (s *MemCheckpointStore) DropNewest() {
	s.mu.Lock()
	if n := len(s.committed); n > 0 {
		s.committed = s.committed[:n-1]
	}
	s.mu.Unlock()
}

// CorruptNewestManifest simulates a torn manifest write by flipping a
// byte in the newest checkpoint's manifest.
func (s *MemCheckpointStore) CorruptNewestManifest() {
	s.mu.Lock()
	if n := len(s.committed); n > 0 {
		man := append([]byte(nil), s.committed[n-1].manifest...)
		man[len(man)/2] ^= 0xFF
		s.committed[n-1].manifest = man
	}
	s.mu.Unlock()
}

// CorruptNewestPage simulates page corruption in the newest checkpoint.
func (s *MemCheckpointStore) CorruptNewestPage() {
	s.mu.Lock()
	if n := len(s.committed); n > 0 && len(s.committed[n-1].pages) > 0 {
		ck := s.committed[n-1]
		p := append([]byte(nil), ck.pages[0]...)
		p[len(p)/2] ^= 0xFF
		// A fresh page list: a Checkpoint loaded earlier shares the old
		// one and, verified when it was loaded, must keep its pages.
		ck.pages = append([][]byte{p}, ck.pages[1:]...)
	}
	s.mu.Unlock()
}

// memCkWriter accumulates one checkpoint for a MemCheckpointStore.
type memCkWriter struct {
	store *MemCheckpointStore
	// pages is the checkpoint so far. It starts empty on the spare
	// pages' array, so the buffer past its end, while there is one, is a
	// pruned image's page nobody else holds.
	pages [][]byte
}

// Page implements CheckpointWriter, copying p into a spare page buffer
// when one is left and large enough.
func (w *memCkWriter) Page(p []byte) error {
	var buf []byte
	if n := len(w.pages); n < cap(w.pages) {
		buf = w.pages[:n+1][n]
	}
	w.pages = append(w.pages, append(buf[:0], p...))
	return nil
}

// Commit implements CheckpointWriter.
func (w *memCkWriter) Commit(m *Manifest) error {
	s := w.store
	s.mu.Lock()
	s.committed = append(s.committed, &memCheckpoint{manifest: encodeManifest(m), pages: w.pages})
	if n := len(s.committed) - checkpointsRetained; n > 0 {
		if pruned := s.committed[n-1]; !pruned.loaned {
			s.spare = pruned.pages
		}
		clear(s.committed[:n])
		s.committed = s.committed[n:]
	}
	s.mu.Unlock()
	w.pages = nil
	return nil
}

// Abort implements CheckpointWriter.
func (w *memCkWriter) Abort() { w.pages = nil }

// DirCheckpointStore persists checkpoints under a directory: checkpoint
// N is a pages file ck-<N>.pages (sealed pages concatenated) plus a
// manifest ck-<N>.manifest written and renamed into place last — the
// rename is the atomic commit point. The two newest committed
// checkpoints are retained; older ones are deleted at commit.
type DirCheckpointStore struct {
	dir string

	mu  sync.Mutex
	seq int
}

// ckName formats a checkpoint file name; fixed-width decimal keeps
// lexicographic order equal to numeric order.
func ckName(seq int, ext string) string { return fmt.Sprintf("ck-%08d.%s", seq, ext) }

// OpenDirCheckpointStore opens (creating if needed) a directory-backed
// store, continuing after the highest existing sequence number.
func OpenDirCheckpointStore(dir string) (*DirCheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "ck-*.manifest"))
	if err != nil {
		return nil, err
	}
	// Continue past the highest existing sequence number. An unparseable
	// matching name fails Open outright: silently treating it as seq 0
	// would let Begin's O_TRUNC overwrite a live checkpoint's pages file
	// while its manifest remains, invalidating that checkpoint.
	seq := 0
	for _, name := range manifests {
		base := filepath.Base(name)
		var n int
		if _, err := fmt.Sscanf(base, "ck-%d.manifest", &n); err != nil {
			return nil, fmt.Errorf("wal: unparseable checkpoint manifest name %q", base)
		}
		seq = max(seq, n+1)
	}
	return &DirCheckpointStore{dir: dir, seq: seq}, nil
}

// Begin implements CheckpointStore.
func (s *DirCheckpointStore) Begin() (CheckpointWriter, error) {
	s.mu.Lock()
	seq := s.seq
	s.seq++
	s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, ckName(seq, "pages")), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &dirCkWriter{store: s, seq: seq, pages: f}, nil
}

// Load implements CheckpointStore.
func (s *DirCheckpointStore) Load() (*Checkpoint, error) {
	manifests, err := filepath.Glob(filepath.Join(s.dir, "ck-*.manifest"))
	if err != nil {
		return nil, err
	}
	sort.Strings(manifests)
	for i := len(manifests) - 1; i >= 0; i-- {
		// A checkpoint whose files do not read is skipped like a torn one.
		manData, errM := os.ReadFile(manifests[i])
		pageData, errP := os.ReadFile(pagesPathFor(manifests[i]))
		pages, errS := splitPages(pageData)
		if errM != nil || errP != nil || errS != nil {
			continue
		}
		if ck, err := openCheckpoint(manData, pages); ck != nil || err != nil {
			return ck, err
		}
	}
	return nil, nil
}

// pagesPathFor maps a manifest path to its pages file path.
func pagesPathFor(manifestPath string) string {
	return manifestPath[:len(manifestPath)-len("manifest")] + "pages"
}

// dirCkWriter streams one checkpoint's pages to disk for a
// DirCheckpointStore.
type dirCkWriter struct {
	store *DirCheckpointStore
	seq   int
	pages *os.File
}

// Page implements CheckpointWriter.
func (w *dirCkWriter) Page(p []byte) error {
	_, err := w.pages.Write(p)
	return err
}

// Commit implements CheckpointWriter: sync the pages, then publish the
// manifest via write-to-temp + fsync + rename, then prune to the
// retention count.
func (w *dirCkWriter) Commit(m *Manifest) error {
	if err := w.pages.Sync(); err != nil {
		return err
	}
	if err := w.pages.Close(); err != nil {
		return err
	}
	dir := w.store.dir
	tmp := filepath.Join(dir, ckName(w.seq, "manifest.tmp"))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(encodeManifest(m))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckName(w.seq, "manifest"))); err != nil {
		return err
	}
	// The rename is the commit point, but it is durable only once the
	// directory itself is synced — and the caller treats a nil return as
	// authorization to truncate the log below this checkpoint's
	// predecessor, so durability must be established before returning.
	// The same sync persists the pages file's directory entry (created
	// in Begin).
	if err := syncDir(dir); err != nil {
		return err
	}
	// Prune: keep the newest checkpointsRetained committed checkpoints,
	// syncing the directory again so the unlinks are durable too.
	manifests, err := filepath.Glob(filepath.Join(dir, "ck-*.manifest"))
	if err != nil {
		return err
	}
	sort.Strings(manifests)
	n := len(manifests) - checkpointsRetained
	if n <= 0 {
		return nil
	}
	for _, name := range manifests[:n] {
		os.Remove(name)
		os.Remove(pagesPathFor(name))
	}
	return syncDir(dir)
}

// Abort implements CheckpointWriter: it removes whatever Commit had not
// yet published, so a failed checkpoint leaves no file behind.
func (w *dirCkWriter) Abort() {
	w.pages.Close()
	os.Remove(filepath.Join(w.store.dir, ckName(w.seq, "pages")))
	os.Remove(filepath.Join(w.store.dir, ckName(w.seq, "manifest.tmp")))
}

var (
	_ CheckpointStore = (*MemCheckpointStore)(nil)
	_ CheckpointStore = (*DirCheckpointStore)(nil)
)

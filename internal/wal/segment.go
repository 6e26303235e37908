package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Log segmentation.
//
// A single append-only file grows without bound: recovery cost and disk
// footprint scale with uptime, not with the distance from the last
// checkpoint. A Device splits the log across rotated segments so that,
// once a checkpoint manifest is durable, the log can drop every segment
// that lies wholly below the checkpoint's start LSN.
//
// The flusher drives segmentation with one extra call per flush pass:
// after Sync it calls Mark with the highest LSN written in that pass.
// Rotation happens only inside Mark — between flush passes, after a sync —
// so every segment is a self-contained stream of whole records and its
// recorded MaxLSN bounds every LSN it contains. Because the flusher writes
// appender buffers in steal order, not LSN order, a later segment may
// still contain records with *smaller* LSNs than an earlier segment's
// MaxLSN; truncation therefore drops a segment only when its own MaxLSN
// is at or below the cut, and Replay skips any surviving record at or
// below a checkpoint's start LSN rather than assuming the remaining
// segments start past it.

// DefaultSegmentBytes is the rotation threshold when a device is
// built with a non-positive size.
const DefaultSegmentBytes = 1 << 20

// Device is the append-only, segmented byte sink a Log writes to. Write
// appends to the active segment; Sync makes every byte written so far
// durable; Mark follows each synced flush pass with the highest LSN it
// wrote and is the only rotation point; Truncate drops every sealed
// segment whose MaxLSN is at or below belowLSN and reports how many. The
// in-tree implementations are MemSegments (tests, benchmarks, crash
// simulation) and FileSegments (a directory of fsync'd files).
type Device interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Mark(maxLSN uint64)
	Truncate(belowLSN uint64) int
}

// SegmentInfo describes one live segment of a MemSegments device.
type SegmentInfo struct {
	Bytes  int
	MaxLSN uint64
	Sealed bool
}

// memSegment is one in-memory segment; sealed segments are fully synced
// by construction (sealing happens in Mark, which follows a Sync).
type memSegment struct {
	buf    []byte
	synced int
	maxLSN uint64
	sealed bool
}

// MemSegments is an in-memory Device that models crash semantics: bytes
// written but not yet synced may be lost or torn at any byte boundary,
// so CrashSegments is the per-segment image a crash is guaranteed to
// preserve. It backs the crash/recovery tests, benchmarks and
// experiments.
//
// The device copies each byte once. A segment gets its whole buffer when
// it becomes active — segmentBytes plus segmentBytes/16 of headroom for
// the flush pass that crosses the threshold (rotation waits for that
// pass's Mark) — so Write is one memmove; a pass larger than the headroom
// grows the buffer through append. Truncate parks dropped segments on
// free and Mark's rotation pops them: steady state allocates nothing, and
// since a segment is allocated only when free is empty the device never
// owns more than its high-water of live segments.
type MemSegments struct {
	mu           sync.Mutex
	segmentBytes int
	segs         []*memSegment // segs[len-1] is the active segment
	free         []*memSegment // truncated segments, reset, for Mark to reuse
	truncated    int
}

// NewMemSegments returns an empty in-memory device rotating at
// segmentBytes (non-positive means DefaultSegmentBytes).
func NewMemSegments(segmentBytes int) *MemSegments {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	d := &MemSegments{segmentBytes: segmentBytes}
	d.segs = []*memSegment{d.fresh()}
	return d
}

// fresh returns an empty segment for rotation: a recycled one if
// Truncate has parked any, else a new full-size buffer.
func (d *MemSegments) fresh() *memSegment {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		return s
	}
	return &memSegment{buf: make([]byte, 0, d.segmentBytes+d.segmentBytes/16)}
}

// Write implements Device: append to the active segment.
func (d *MemSegments) Write(p []byte) (int, error) {
	d.mu.Lock()
	s := d.segs[len(d.segs)-1]
	s.buf = append(s.buf, p...)
	d.mu.Unlock()
	return len(p), nil
}

// Sync implements Device.
func (d *MemSegments) Sync() error {
	d.mu.Lock()
	s := d.segs[len(d.segs)-1]
	s.synced = len(s.buf)
	d.mu.Unlock()
	return nil
}

// Close implements Device.
func (d *MemSegments) Close() error { return nil }

// Mark implements Device: record the pass's highest LSN on the
// active segment and rotate it once it reaches the size threshold. Mark
// runs after Sync, so a sealed segment is always fully synced.
func (d *MemSegments) Mark(maxLSN uint64) {
	d.mu.Lock()
	s := d.segs[len(d.segs)-1]
	if maxLSN > s.maxLSN {
		s.maxLSN = maxLSN
	}
	if len(s.buf) >= d.segmentBytes && s.synced == len(s.buf) {
		s.sealed = true
		d.segs = append(d.segs, d.fresh())
	}
	d.mu.Unlock()
}

// Truncate implements Device. Dropped segments are reset and parked for
// reuse; nothing else references their buffers (CrashSegments copies).
func (d *MemSegments) Truncate(belowLSN uint64) int {
	d.mu.Lock()
	kept := d.segs[:0]
	dropped := 0
	for _, s := range d.segs {
		if s.sealed && s.maxLSN <= belowLSN {
			dropped++
			*s = memSegment{buf: s.buf[:0]}
			d.free = append(d.free, s)
			continue
		}
		kept = append(kept, s)
	}
	clear(d.segs[len(kept):]) // the filtered-out tail must not pin segments
	d.segs = kept
	d.truncated += dropped
	d.mu.Unlock()
	return dropped
}

// CrashSegments returns the per-segment images a crash is guaranteed to
// preserve: each surviving segment's synced prefix, in segment order,
// with empty segments elided. This is the input Replay and Recover take.
func (d *MemSegments) CrashSegments() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]byte, 0, len(d.segs))
	for _, s := range d.segs {
		if s.synced == 0 {
			continue
		}
		out = append(out, append([]byte(nil), s.buf[:s.synced]...))
	}
	return out
}

// Segments reports the live segments (tests and experiments).
func (d *MemSegments) Segments() []SegmentInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SegmentInfo, len(d.segs))
	for i, s := range d.segs {
		out[i] = SegmentInfo{Bytes: len(s.buf), MaxLSN: s.maxLSN, Sealed: s.sealed}
	}
	return out
}

// Truncated reports how many segments have been dropped so far.
func (d *MemSegments) Truncated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.truncated
}

// fileSegment is one sealed on-disk segment this process wrote.
type fileSegment struct {
	path   string
	maxLSN uint64
}

// FileSegments is a file-backed Device: each segment is one
// fsync'd append-only file seg-<seq>.wal under a directory, rotated at
// the size threshold. Only segments sealed by this process are eligible
// for Truncate — segments inherited from a previous process have unknown
// MaxLSNs until recovery scans them, and recovery (not the device)
// decides their fate.
type FileSegments struct {
	dir          string
	segmentBytes int

	mu      sync.Mutex
	f       *os.File
	written int
	maxLSN  uint64
	seq     int
	sealed  []fileSegment
}

// segName formats the file name of segment seq; the fixed-width decimal
// keeps lexicographic order equal to numeric order.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// OpenFileSegments opens (creating the directory if needed) a file-backed
// segment device. New segments continue after the highest existing
// sequence number, so a reopened log never overwrites old segments.
func OpenFileSegments(dir string, segmentBytes int) (*FileSegments, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := listSegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	// Continue past the highest existing sequence number. An unparseable
	// matching name fails Open outright: silently treating it as seq 0
	// would reopen (and append to) an existing segment file.
	seq := 0
	for _, name := range names {
		base := filepath.Base(name)
		var n int
		if _, err := fmt.Sscanf(base, "seg-%d.wal", &n); err != nil {
			return nil, fmt.Errorf("wal: unparseable segment file name %q", base)
		}
		if n+1 > seq {
			seq = n + 1
		}
	}
	d := &FileSegments{dir: dir, segmentBytes: segmentBytes, seq: seq}
	if err := d.openActive(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *FileSegments) openActive() error {
	f, err := os.OpenFile(filepath.Join(d.dir, segName(d.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// Make the segment's directory entry durable now: its records are
	// fsync'd to the file before acknowledgment, but a file-content fsync
	// does not persist the entry that names the file, and losing that
	// entry loses every acknowledged record in the segment.
	if err := syncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.f, d.written, d.maxLSN = f, 0, 0
	return nil
}

// Write implements Device.
func (d *FileSegments) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.f.Write(p)
	d.written += n
	return n, err
}

// Sync implements Device.
func (d *FileSegments) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

// Close implements Device.
func (d *FileSegments) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// Mark implements Device; see MemSegments.Mark.
func (d *FileSegments) Mark(maxLSN uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if maxLSN > d.maxLSN {
		d.maxLSN = maxLSN
	}
	if d.written < d.segmentBytes {
		return
	}
	// The pass's bytes are already synced (Mark follows Sync), so the
	// sealed file is durable as written.
	if err := d.f.Close(); err != nil {
		panic(fmt.Sprintf("wal: sealing segment: %v", err))
	}
	d.sealed = append(d.sealed, fileSegment{path: filepath.Join(d.dir, segName(d.seq)), maxLSN: d.maxLSN})
	d.seq++
	if err := d.openActive(); err != nil {
		panic(fmt.Sprintf("wal: rotating segment: %v", err))
	}
}

// Truncate implements Device.
func (d *FileSegments) Truncate(belowLSN uint64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.sealed[:0]
	dropped := 0
	for _, s := range d.sealed {
		if s.maxLSN <= belowLSN {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				panic(fmt.Sprintf("wal: truncating segment: %v", err))
			}
			dropped++
			continue
		}
		kept = append(kept, s)
	}
	clear(d.sealed[len(kept):])
	d.sealed = kept
	// Sync the directory so the unlinks are durable: a crash must not
	// resurrect segments the truncation rule already dropped.
	if dropped > 0 {
		if err := syncDir(d.dir); err != nil {
			panic(fmt.Sprintf("wal: syncing directory after truncation: %v", err))
		}
	}
	return dropped
}

// syncDir fsyncs a directory, making the file creations, renames and
// removals inside it durable — fsyncing a file persists its contents,
// not the directory entry that names it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSegmentFiles returns the segment file paths under dir in sequence
// order.
func listSegmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// LoadFileSegments reads every segment under dir, in sequence order — the
// recovery input matching a FileSegments device.
func LoadFileSegments(dir string) ([][]byte, error) {
	names, err := listSegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if len(data) == 0 {
			continue
		}
		out = append(out, data)
	}
	return out, nil
}

var (
	_ Device = (*MemSegments)(nil)
	_ Device = (*FileSegments)(nil)
)

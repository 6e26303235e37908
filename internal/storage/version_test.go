package storage

import (
	"strings"
	"testing"
)

func newVT(t *testing.T) *VersionedTable {
	t.Helper()
	return NewVersionedTable("vt", 16, 16)
}

func TestVersionedTableZeroBaseAndInsert(t *testing.T) {
	vt := newVT(t)
	// Before any load, every key resolves at snapshot 0 to a zero image.
	rec, hops := vt.ReadVersion(3, 0)
	if hops != 1 || GetU64(rec, 0) != 0 {
		t.Fatalf("zero base: hops=%d val=%d", hops, GetU64(rec, 0))
	}
	// Load path replaces the base so snapshot 0 sees the loaded image.
	buf := make([]byte, 16)
	PutU64(buf, 0, 42)
	if err := vt.Insert(3, buf); err != nil {
		t.Fatal(err)
	}
	rec, _ = vt.ReadVersion(3, 0)
	if GetU64(rec, 0) != 42 {
		t.Fatalf("after Insert: %d", GetU64(rec, 0))
	}
	// The versioned image is a copy, not the arena row: mutating the arena
	// must not change what the snapshot sees.
	PutU64(vt.Get(3), 0, 99)
	rec, _ = vt.ReadVersion(3, 0)
	if GetU64(rec, 0) != 42 {
		t.Fatalf("snapshot aliases arena: %d", GetU64(rec, 0))
	}
}

func TestVersionedTableInstallAndResolve(t *testing.T) {
	vt := newVT(t)
	// Commit values 1, 2, 3 at LSNs 10, 20, 30.
	for i, lsn := range []uint64{10, 20, 30} {
		PutU64(vt.Get(5), 0, uint64(i+1))
		vt.InstallVersion(5, lsn)
	}
	for _, tc := range []struct{ snap, want uint64 }{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {30, 3}, {1 << 40, 3},
	} {
		rec, _ := vt.ReadVersion(5, tc.snap)
		if got := GetU64(rec, 0); got != tc.want {
			t.Fatalf("snap %d: got %d, want %d", tc.snap, got, tc.want)
		}
	}
	// Out-of-range key: nil, 0 (caller treats as missing).
	if rec, hops := vt.ReadVersion(999, 1<<40); rec != nil || hops != 0 {
		t.Fatalf("out-of-range = %v,%d", rec, hops)
	}
}

func TestVersionedTablePruneKeepsWatermark(t *testing.T) {
	vt := newVT(t)
	for lsn := uint64(1); lsn <= 10; lsn++ {
		PutU64(vt.Get(0), 0, lsn)
		vt.InstallVersion(0, lsn)
	}
	// Watermark 0: every prune must keep a node with lsn ≤ 0 — the zero
	// base — so history back to snapshot 0 stays resolvable, and nothing
	// newer than the watermark is ever cut.
	rec, _ := vt.ReadVersion(0, 0)
	if GetU64(rec, 0) != 0 {
		t.Fatalf("snapshot 0 lost: %d", GetU64(rec, 0))
	}
	if got := vt.ChainLen(0); got != 11 {
		t.Fatalf("chain length under watermark 0 = %d, want 11 (10 versions + base)", got)
	}

	// Raise the watermark to 9 and install LSN 11: the prune keeps what is
	// newer than the watermark (11, 10) plus the newest node ≤ watermark
	// (9), which is what a reader at the oldest active snapshot resolves
	// to, and cuts the nine nodes behind it.
	vt.SetWatermark(9)
	if vt.Watermark() != 9 {
		t.Fatalf("Watermark = %d", vt.Watermark())
	}
	// The watermark never falls: history cut under 9 cannot come back.
	vt.SetWatermark(3)
	if vt.Watermark() != 9 {
		t.Fatalf("Watermark fell to %d", vt.Watermark())
	}
	PutU64(vt.Get(0), 0, 11)
	vt.InstallVersion(0, 11)
	if got := vt.ChainLen(0); got != 3 {
		t.Fatalf("chain length after prune = %d, want 3 (11, 10, 9)", got)
	}
	// Snapshots at or above the watermark resolve exactly.
	for _, snap := range []uint64{9, 10, 11} {
		rec, _ := vt.ReadVersion(0, snap)
		if got := GetU64(rec, 0); got != snap {
			t.Fatalf("snap %d resolved to %d", snap, got)
		}
	}
	// A watermark at or past the newest version leaves one node.
	vt.SetWatermark(12)
	PutU64(vt.Get(0), 0, 12)
	vt.InstallVersion(0, 12)
	if got := vt.ChainLen(0); got != 1 {
		t.Fatalf("chain length at watermark 12 = %d, want 1", got)
	}
}

func TestVersionedTableReadBelowWatermarkPanics(t *testing.T) {
	vt := newVT(t)
	for lsn := uint64(10); lsn <= 12; lsn++ {
		PutU64(vt.Get(0), 0, lsn)
		vt.SetWatermark(lsn)
		vt.InstallVersion(0, lsn)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("read below pruned history did not panic")
		}
		if !strings.Contains(r.(string), "no version") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	vt.ReadVersion(0, 5) // history below watermark 12 was pruned
}

func TestVersionedTableScanVersions(t *testing.T) {
	vt := NewVersionedTable("vt", 8, 16)
	for k := uint64(0); k < 8; k++ {
		PutU64(vt.Get(k), 0, k+100)
		vt.InstallVersion(k, 7)
	}
	var keys []uint64
	var sum uint64
	hops := vt.ScanVersions(2, 100, 7, func(k uint64, rec []byte) bool {
		keys = append(keys, k)
		sum += GetU64(rec, 0)
		return true
	})
	if len(keys) != 6 || keys[0] != 2 || keys[5] != 7 {
		t.Fatalf("scan keys = %v", keys)
	}
	if want := uint64(102 + 103 + 104 + 105 + 106 + 107); sum != want {
		t.Fatalf("scan sum = %d, want %d", sum, want)
	}
	if hops != 6 {
		t.Fatalf("hops = %d", hops)
	}
	// At snapshot 6 the installs are invisible: zero bases resolve.
	sum = 0
	vt.ScanVersions(0, 8, 6, func(_ uint64, rec []byte) bool {
		sum += GetU64(rec, 0)
		return true
	})
	if sum != 0 {
		t.Fatalf("pre-install snapshot sum = %d", sum)
	}
	// Early stop.
	n := 0
	vt.ScanVersions(0, 8, 7, func(uint64, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestVersionedLayoutValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Versioned+Growable", func() {
		NewDB().Create(Layout{Name: "x", NumRecords: 8, RecordSize: 16, Versioned: true, Growable: true})
	})
	// Layout plumbing: Create with Versioned yields a *VersionedTable.
	db := NewDB()
	id := db.Create(Layout{Name: "v", NumRecords: 8, RecordSize: 16, Versioned: true})
	if _, ok := db.Table(id).(*VersionedTable); !ok {
		t.Fatalf("Create(Versioned) = %T", db.Table(id))
	}
}

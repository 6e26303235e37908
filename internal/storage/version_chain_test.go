package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// The version chain against a model that prunes nothing: every version a
// key ever had, newest first, in a plain slice. The table under test may
// forget whatever the watermark lets it forget and recycle the nodes; a
// read at or above the watermark must still return the model's bytes.

const (
	chainKeys = 6
	chainSize = 24 // three words
)

type modelVersion struct {
	lsn  uint64
	data []byte
}

type chainModel struct {
	t         *testing.T
	vt        *VersionedTable
	versions  [chainKeys][]modelVersion // newest first; the last is the LSN-0 base
	free      [2]VersionFree            // two workers' free lists
	watermark uint64
	lsn       uint64
}

func newChainModel(t *testing.T) *chainModel {
	m := &chainModel{t: t, vt: NewVersionedTable("vt", chainKeys, chainSize)}
	for k := range m.versions {
		m.versions[k] = []modelVersion{{0, make([]byte, chainSize)}}
	}
	return m
}

// image is a payload no other (key, stamp) pair produces.
func image(key, stamp uint64) []byte {
	b := make([]byte, chainSize)
	for off := 0; off < chainSize; off += 8 {
		PutU64(b, off, stamp<<8|key)
	}
	return b
}

// step interprets one script operation.
func (m *chainModel) step(op, key, arg byte) {
	k := uint64(key) % chainKeys
	switch op % 4 {
	case 0: // a commit: write the arena row, install it at the next LSN
		m.lsn++
		img := image(k, m.lsn)
		copy(m.vt.Get(k), img)
		if which := int(arg) % 3; which < 2 {
			m.vt.InstallVersion(k, m.lsn, &m.free[which])
		} else {
			m.vt.InstallVersion(k, m.lsn)
		}
		m.versions[k] = append([]modelVersion{{m.lsn, img}}, m.versions[k]...)
		newer := 0
		for _, v := range m.versions[k] {
			if v.lsn > m.watermark {
				newer++
			}
		}
		if got := m.vt.ChainLen(k); got > newer+1 {
			m.t.Fatalf("key %d: chain holds %d nodes after an install, want ≤ %d (versions newer than watermark %d, plus one)",
				k, got, newer+1, m.watermark)
		}
	case 1: // the tracker publishes a watermark; lower ones are ignored
		w := uint64(arg) % (m.lsn + 1)
		m.vt.SetWatermark(w)
		m.watermark = max(m.watermark, w)
		if got := m.vt.Watermark(); got != m.watermark {
			m.t.Fatalf("Watermark = %d, want %d", got, m.watermark)
		}
	case 2: // a snapshot read at or above the watermark
		m.read(k, m.watermark+uint64(arg)%(m.lsn-m.watermark+2))
	case 3: // a (re)load: the key's history becomes one LSN-0 image
		img := image(k, 1<<40|uint64(arg))
		if err := m.vt.Insert(k, img); err != nil {
			m.t.Fatal(err)
		}
		m.versions[k] = []modelVersion{{0, img}}
	}
	// Whatever the operation did to one key, no key lost or changed a
	// version a registered snapshot could read.
	for k := uint64(0); k < chainKeys; k++ {
		m.read(k, m.watermark)
		m.read(k, m.lsn)
	}
}

func (m *chainModel) read(k, snap uint64) {
	var want []byte
	for _, v := range m.versions[k] {
		if v.lsn <= snap {
			want = v.data
			break
		}
	}
	got, _ := m.vt.ReadVersion(k, snap)
	if !bytes.Equal(got, want) {
		m.t.Fatalf("key %d at snapshot %d (watermark %d): read %x, model has %x", k, snap, m.watermark, got, want)
	}
}

func (m *chainModel) run(script []byte) {
	for ; len(script) >= 3; script = script[3:] {
		m.step(script[0], script[1], script[2])
	}
}

func TestVersionChainMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*400)
		rng.Read(script)
		newChainModel(t).run(script)
	}
}

func FuzzVersionChain(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 2, 0, 0})                            // two installs, a watermark, a third that cuts
	f.Add([]byte{0, 1, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 0, 2, 0, 0, 2, 0, 3, 1, 9, 2, 2, 0}) // key 1's base is recycled under key 2, then key 1 reloads
	f.Add([]byte{3, 0, 7, 0, 0, 2, 3, 0, 8, 2, 0, 0})                                     // load, commit, reload over history
	f.Fuzz(func(t *testing.T, script []byte) {
		newChainModel(t).run(script)
	})
}

// Once a worker's free list holds a node, an install that cuts one node
// allocates nothing: the steady state of every record after its second
// write.
func TestInstallVersionRecyclesWithoutAllocating(t *testing.T) {
	vt := NewVersionedTable("vt", 4, 64)
	var free VersionFree
	lsn := uint64(0)
	install := func() {
		lsn++
		vt.SetWatermark(lsn - 1)
		vt.InstallVersion(lsn%4, lsn, &free)
	}
	for i := 0; i < 8; i++ {
		install() // first write keeps the base and allocates; the second cuts it
	}
	if avg := testing.AllocsPerRun(200, install); avg != 0 {
		t.Fatalf("primed InstallVersion allocates %.2f objects per call, want 0", avg)
	}
	for k := uint64(0); k < 4; k++ {
		if got := vt.ChainLen(k); got != 2 {
			t.Fatalf("key %d chain length = %d, want 2", k, got)
		}
	}
}

// The load path is two copies into memory the table already owns, safe
// from several goroutines on distinct keys (wal.Replay's shape).
func TestVersionedInsertDenseAndConcurrent(t *testing.T) {
	const n, workers = 1024, 8
	vt := NewVersionedTable("vt", n, chainSize)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				if err := vt.Insert(k, image(k, 1)); err != nil {
					t.Error(err)
				}
				// Idempotent per key: a repeated load lands on the same node.
				if err := vt.Insert(k, image(k, 2)); err != nil {
					t.Error(err)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	for k := uint64(0); k < n; k++ {
		if got, _ := vt.ReadVersion(k, 0); !bytes.Equal(got, image(k, 2)) {
			t.Fatalf("key %d: base image %x", k, got)
		}
		if vt.ChainLen(k) != 1 {
			t.Fatalf("key %d: chain length %d after load", k, vt.ChainLen(k))
		}
	}
	img := image(3, 3)
	if avg := testing.AllocsPerRun(100, func() { vt.Insert(3, img) }); avg != 0 {
		t.Fatalf("Insert on an unwritten row allocates %.2f objects, want 0", avg)
	}
}

// A row whose base node was cut and recycled under another key must not
// be loaded through that node.
func TestVersionedInsertAfterBaseRecycled(t *testing.T) {
	vt := NewVersionedTable("vt", 2, chainSize)
	var free VersionFree
	commit := func(key, lsn uint64) {
		copy(vt.Get(key), image(key, lsn))
		vt.SetWatermark(lsn - 1)
		vt.InstallVersion(key, lsn, &free)
	}
	commit(0, 1)
	commit(0, 2) // cuts key 0's base into the free list
	commit(1, 3) // key 1's version 3 now lives in key 0's base node
	if vt.chains[1].Load() != &vt.bases[0] {
		t.Fatal("set-up: key 0's base node was not recycled under key 1")
	}
	if err := vt.Insert(0, image(0, 99)); err != nil {
		t.Fatal(err)
	}
	if got, _ := vt.ReadVersion(1, 3); !bytes.Equal(got, image(1, 3)) {
		t.Fatalf("loading key 0 clobbered key 1's version: %x", got)
	}
	if got, _ := vt.ReadVersion(0, 3); !bytes.Equal(got, image(0, 99)) {
		t.Fatalf("key 0 after reload: %x", got)
	}

	// The same when the node came back to its own row as a commit.
	commit(1, 4) // cuts key 1's base
	commit(1, 5) // cuts version 3: key 0's base node is free again
	commit(0, 6)
	if vt.chains[0].Load() != &vt.bases[0] {
		t.Fatal("set-up: key 0's base node did not return to key 0")
	}
	if err := vt.Insert(0, image(0, 77)); err != nil {
		t.Fatal(err)
	}
	if got, _ := vt.ReadVersion(0, 0); !bytes.Equal(got, image(0, 77)) {
		t.Fatalf("key 0 at snapshot 0 after reload over a recycled base: %x", got)
	}
}

package transport

import (
	"bytes"
	"testing"

	"repro/internal/txn"
)

// TestFrameRoundTrip pins the codec's identity contract on hand-built
// frames covering every message kind and shape.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Frame
	}{
		{"empty", func() *Frame { return &Frame{Plane: PlaneExecCC, From: 3, To: 1} }},
		{"mixed", fuzzFrame},
		{"goodbye", func() *Frame { return &Frame{Plane: PlaneControl, To: CtrlGoodbye} }},
		{"release-only", func() *Frame {
			f := &Frame{Plane: PlaneExecCC}
			for i := 0; i < 5; i++ {
				m := f.AddMsg()
				m.Kind = KindRelease
				m.TxnID = uint64(i) << 48
			}
			return f
		}},
		{"grant-only", func() *Frame {
			f := &Frame{Plane: PlaneCCExec, From: 2, To: 7}
			m := f.AddMsg()
			m.Kind = KindGrant
			m.TxnID = ^uint64(0)
			return f
		}},
		{"acquire-empty-hop", func() *Frame {
			f := &Frame{Plane: PlaneExecCC}
			m := f.AddMsg()
			m.Kind = KindAcquire
			m.TxnID = 1
			m.AddHop(4) // hop with zero ops
			return f
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build()
			enc := AppendFrame(nil, src)
			var dec Frame
			if err := DecodeFrame(&dec, enc); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if reenc := AppendFrame(nil, &dec); !bytes.Equal(reenc, enc) {
				t.Fatalf("round trip diverged:\n in  %x\n out %x", enc, reenc)
			}
			if got := len(enc); got < FrameHeaderSize {
				t.Fatalf("encoded size %d below header size", got)
			}
			// EncodedSize bookkeeping matches the bytes actually produced.
			want := FrameHeaderSize
			for i := range src.Msgs {
				want += src.Msgs[i].EncodedSize()
			}
			if len(enc) != want {
				t.Fatalf("EncodedSize sum %d != encoded length %d", want, len(enc))
			}
		})
	}
}

// TestAcquireEncodedSize pins an acquire's wire cost: kind and id, owner
// and hop count, then each hop's header and ops. An acquire always enters
// its chain at Hops[0], so it carries no hop index.
func TestAcquireEncodedSize(t *testing.T) {
	f := &Frame{Plane: PlaneExecCC}
	m := f.AddMsg()
	m.Kind = KindAcquire
	h := m.AddHop(0)
	h.Ops = append(h.Ops, txn.Op{Table: 1, Key: 2, Mode: txn.Write})
	const want = (1 + 8) + (2 + 2) + (2 + 2) + (4 + 8 + 1)
	if got := m.EncodedSize(); got != want {
		t.Fatalf("EncodedSize = %d, want %d", got, want)
	}
	if got := len(AppendFrame(nil, f)); got != FrameHeaderSize+want {
		t.Fatalf("encoded frame = %d bytes, want %d", got, FrameHeaderSize+want)
	}
}

// TestDecodeFrameErrors maps each malformed-input class to an error (and
// never a panic or a false success).
func TestDecodeFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, fuzzFrame())
	mut := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short-header", valid[:FrameHeaderSize-1]},
		{"torn-message", valid[:len(valid)-2]},
		{"bad-plane", mut(0, 9)},
		{"bad-kind", mut(FrameHeaderSize, 7)},
		{"trailing-bytes", append(append([]byte(nil), valid...), 0xEE)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var f Frame
			if err := DecodeFrame(&f, tc.in); err == nil {
				t.Fatal("malformed payload decoded without error")
			}
		})
	}

	// A mode byte above txn.Write inside an op must be rejected; find it
	// by corrupting the first op of a single-op acquire.
	f := &Frame{Plane: PlaneExecCC}
	m := f.AddMsg()
	m.Kind = KindAcquire
	h := m.AddHop(0)
	h.Ops = append(h.Ops, txn.Op{Table: 1, Key: 2, Mode: txn.Read})
	enc := AppendFrame(nil, f)
	enc[len(enc)-1] = 0xFF // the op's trailing mode byte
	var dec Frame
	if err := DecodeFrame(&dec, enc); err == nil {
		t.Fatal("op with unknown mode decoded without error")
	}
}

// TestConfigValidatePanics covers the wire-level knobs' range checks.
func TestConfigValidatePanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative-maxframe", Config{MaxFrame: -1}},
		{"tiny-maxframe", Config{MaxFrame: minMaxFrame - 1}},
		{"huge-maxframe", Config{MaxFrame: maxWirePayload + 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Validate accepted out-of-range config")
				}
			}()
			tc.cfg.Validate()
		})
	}
	// The zero value and explicit defaults must both pass.
	Config{}.Validate()
	d := Config{}.WithDefaults()
	d.Validate()
	if d.MaxFrame != DefaultMaxFrame {
		t.Fatalf("WithDefaults left a zero field: %+v", d)
	}
}

// TestHelloRoundTrip pins the handshake codec.
func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{Role: RoleCC, CCThreads: 3, ExecThreads: 5}
	enc := appendHello(nil, h)
	var dec Hello
	if err := decodeHello(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if reenc := appendHello(nil, &dec); !bytes.Equal(reenc, enc) {
		t.Fatal("hello round trip diverged")
	}
	// A non-orthrus peer (wrong magic) must be refused.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if err := decodeHello(bad, &Hello{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

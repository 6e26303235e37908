package transport

import (
	"bytes"
	"testing"

	"repro/internal/txn"
)

// fuzzFrame builds a representative mixed frame to seed the corpus: an
// acquire spanning two hops, a release and a grant, so mutations start
// from bytes that walk every branch of the decoder.
func fuzzFrame() *Frame {
	f := &Frame{Plane: PlaneExecCC, From: 1, To: 2}
	m := f.AddMsg()
	m.Kind = KindAcquire
	m.TxnID = 0x0102030405060708
	m.Owner, m.HopIdx = 3, 1
	h := m.AddHop(0)
	h.Ops = append(h.Ops, txn.Op{Table: 0, Key: 7, Mode: txn.Read})
	h.Ops = append(h.Ops, txn.Op{Table: 1, Key: 9, Mode: txn.Write})
	h = m.AddHop(2)
	h.Ops = append(h.Ops, txn.Op{Table: 0, Key: 11, Mode: txn.Write})
	m = f.AddMsg()
	m.Kind = KindRelease
	m.TxnID = 99
	m = f.AddMsg()
	m.Kind = KindGrant
	m.TxnID = 100
	return f
}

// FuzzMessageFrame feeds arbitrary (truncated, bit-flipped, synthesized)
// payloads to DecodeFrame and asserts the codec contract: decoding never
// panics regardless of input, and any payload that decodes successfully
// re-encodes to exactly the same bytes (round-trip identity) — the
// property the cross-process message plane relies on to treat a decoded
// frame as a faithful copy of what the peer sent.
func FuzzMessageFrame(f *testing.F) {
	img := AppendFrame(nil, fuzzFrame())
	f.Add(img)
	f.Add(img[:len(img)-3])                       // torn tail
	f.Add(img[:FrameHeaderSize])                  // header promising messages it lacks
	f.Add([]byte{})                               // empty payload
	f.Add([]byte{PlaneControl, 0, 0, 1, 0, 0, 0}) // goodbye-shaped control frame
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// A count field claiming 65535 messages on a short body: the decoder
	// must stop at the bytes, not the claim.
	huge := append([]byte(nil), img...)
	huge[5], huge[6] = 0xFF, 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeFrame(&fr, data); err != nil {
			return // malformed input must error, never panic
		}
		if reenc := AppendFrame(nil, &fr); !bytes.Equal(reenc, data) {
			t.Fatalf("decoded frame does not re-encode to its input:\n in  %x\n out %x", data, reenc)
		}
		// Decoding into a dirty reused frame must give the same result.
		reuse := fuzzFrame()
		if err := DecodeFrame(reuse, data); err != nil {
			t.Fatalf("reused-frame decode failed where fresh decode succeeded: %v", err)
		}
		if reenc := AppendFrame(nil, reuse); !bytes.Equal(reenc, data) {
			t.Fatal("reused-frame decode diverged from fresh decode")
		}
	})
}

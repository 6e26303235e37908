// Package transport carries the ORTHRUS message plane over a network
// connection. The in-process plane moves `message` values through SPSC
// rings; this package moves the same traffic between OS processes as
// length-prefixed binary frames, one frame per batch drained from a ring
// (split at the MaxFrame cap), so the batching discipline (and the FIFO
// order each ring guarantees) survives the wire: a frame's messages are
// delivered in order, and frames on one connection are delivered in send
// order.
//
// The codec is deliberately dumb — fixed-width little-endian fields, no
// varints, no compression — because exec and CC threads never touch it:
// they publish into rings as they would in-process, and the engine's net
// stepper, a session's only Peer user, drains the rings bound for the
// peer node and builds the frames (capacity-reusing, allocation free) —
// the single place bytes are produced and decoded. A Peer never waits and
// starts no goroutine: its core is one non-blocking read into a reusable
// buffer, frames decoded in place, and one non-blocking write of
// everything appended since the last. The net stepper drives that core
// once per step; Send and Recv are a blocking driver over the same
// buffers for everyone else. See README "Distributed message plane".
package transport

import (
	"encoding/binary"
	"errors"

	"repro/internal/txn"
)

// Planes name the logical queue matrix a frame belongs to. The two-node
// split (all CC threads on one node, all exec threads on the other)
// only ever crosses the wire on the exec→CC plane (acquires, releases)
// and the CC→exec plane (grants); CC→CC forwards stay node-local, which
// is what keeps the paper's ascending-CC-id forwarding argument intact
// over the network (see README).
const (
	// PlaneExecCC carries acquire/release messages, exec node → CC node.
	PlaneExecCC uint8 = 0
	// PlaneCCExec carries grant messages, CC node → exec node.
	PlaneCCExec uint8 = 1
	// PlaneControl carries connection control frames; the code is in
	// Frame.To and the frame has no messages.
	PlaneControl uint8 = 2
)

// CtrlGoodbye (in Frame.To of a PlaneControl frame) announces that the
// sender has flushed every data frame it will ever send. It is the
// shutdown barrier: a node that has received goodbye and drained its
// reader has seen the peer's complete message history.
const CtrlGoodbye uint16 = 1

// Message kinds. Acquire carries the transaction's full CC itinerary so
// the CC node can materialize a wrapper without any other state;
// release and grant are just the transaction's wire id — by the time
// they are decoded the receiving node already holds the wrapper.
const (
	KindAcquire uint8 = 0
	KindRelease uint8 = 1
	KindGrant   uint8 = 2
)

// Hop is one CC thread's slice of an acquire's declared access set.
type Hop struct {
	// CC is the hop's CC thread id.
	CC uint16
	// Ops are the lock requests this CC thread owns, in txn.SortOps
	// order within the hop.
	Ops []txn.Op
}

// Msg is one message-plane message in wire form.
type Msg struct {
	// Kind is KindAcquire, KindRelease or KindGrant.
	Kind uint8
	// TxnID is the wire id correlating this message with a wrapper on
	// both nodes. Each submission attempt (including OLLP replans of
	// the same transaction) draws a fresh id, so an id never names two
	// generations of lock state at once.
	TxnID uint64
	// Owner and Hops are only meaningful for KindAcquire. An acquire
	// always enters its chain at Hops[0]: later hops are reached by
	// CC→CC forwarding on the receiving node, never over the wire.
	Owner uint16
	Hops  []Hop
}

// Frame is one wire frame: a batch of messages for a single
// (plane, from, to) queue, i.e. one batch drained from that queue's ring
// (or the part of it that fits the MaxFrame cap).
type Frame struct {
	Plane    uint8
	From, To uint16
	Msgs     []Msg
}

// Encoded field widths.
const (
	// FrameHeaderSize is the encoded frame header: plane, from, to,
	// message count.
	FrameHeaderSize = 1 + 2 + 2 + 2
	// msgHeaderSize covers Kind and TxnID, present on every message.
	msgHeaderSize = 1 + 8
	// acquireHeaderSize covers Owner and the hop count.
	acquireHeaderSize = 2 + 2
	// hopHeaderSize covers Hop.CC and the op count.
	hopHeaderSize = 2 + 2
	// opSize is one txn.Op: table (u32), key (u64), mode (u8).
	opSize = 4 + 8 + 1
	// wirePrefixSize is the length prefix in front of every frame.
	wirePrefixSize = 4
)

// maxWirePayload is a hard sanity cap on a decoded frame's length
// prefix; anything larger is treated as a corrupt stream. (Config's
// MaxFrame is a soft coalescing cap: a single oversized acquire may
// exceed it, but never this.)
const maxWirePayload = 1 << 30

// Reset empties the frame for reuse, keeping every nested slice's
// capacity.
func (f *Frame) Reset() {
	f.Plane, f.From, f.To = 0, 0, 0
	f.Msgs = f.Msgs[:0]
}

// AddMsg appends an empty message and returns it for filling, reusing
// the slot's nested slice capacity.
//
//orthrus:hotpath
func (f *Frame) AddMsg() *Msg {
	n := len(f.Msgs)
	if n < cap(f.Msgs) {
		f.Msgs = f.Msgs[:n+1]
	} else {
		var zero Msg
		f.Msgs = append(f.Msgs, zero)
	}
	m := &f.Msgs[n]
	m.Kind, m.TxnID, m.Owner = 0, 0, 0
	m.Hops = m.Hops[:0]
	return m
}

// AddHop appends an empty hop to an acquire message and returns it,
// reusing the slot's Ops capacity.
//
//orthrus:hotpath
func (m *Msg) AddHop(cc uint16) *Hop {
	n := len(m.Hops)
	if n < cap(m.Hops) {
		m.Hops = m.Hops[:n+1]
	} else {
		var zero Hop
		m.Hops = append(m.Hops, zero)
	}
	h := &m.Hops[n]
	h.CC = cc
	h.Ops = h.Ops[:0]
	return h
}

// EncodedSize returns the message's encoded payload size in bytes,
// used by senders to respect the MaxFrame coalescing cap without
// touching any bytes.
//
//orthrus:hotpath
func (m *Msg) EncodedSize() int {
	n := msgHeaderSize
	if m.Kind == KindAcquire {
		n += acquireHeaderSize
		for i := range m.Hops {
			n += hopHeaderSize + opSize*len(m.Hops[i].Ops)
		}
	}
	return n
}

// AppendFrame appends f's encoded payload (no length prefix) to dst and
// returns the extended slice. Only Peer.Append and tests call it; exec and
// CC threads stop at building Frame.Msgs.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, f.Plane)
	dst = binary.LittleEndian.AppendUint16(dst, f.From)
	dst = binary.LittleEndian.AppendUint16(dst, f.To)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Msgs)))
	for i := range f.Msgs {
		m := &f.Msgs[i]
		dst = append(dst, m.Kind)
		dst = binary.LittleEndian.AppendUint64(dst, m.TxnID)
		if m.Kind != KindAcquire {
			continue
		}
		dst = binary.LittleEndian.AppendUint16(dst, m.Owner)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Hops)))
		for j := range m.Hops {
			h := &m.Hops[j]
			dst = binary.LittleEndian.AppendUint16(dst, h.CC)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Ops)))
			for _, op := range h.Ops {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(op.Table))
				dst = binary.LittleEndian.AppendUint64(dst, op.Key)
				dst = append(dst, byte(op.Mode))
			}
		}
	}
	return dst
}

// Decode errors. Every malformed input maps to an error — DecodeFrame
// never panics (fuzzed by FuzzMessageFrame).
var (
	errTruncated = errors.New("transport: truncated frame")
	errTrailing  = errors.New("transport: trailing bytes after frame")
	errBadPlane  = errors.New("transport: unknown plane")
	errBadKind   = errors.New("transport: unknown message kind")
	errBadMode   = errors.New("transport: unknown op mode")
)

// DecodeFrame decodes one frame payload into f, reusing f's nested
// slice capacity. On success a re-encode of f reproduces b exactly
// (round-trip identity); on any malformed input it returns an error and
// never panics.
func DecodeFrame(f *Frame, b []byte) error {
	if len(b) < FrameHeaderSize {
		return errTruncated
	}
	f.Plane = b[0]
	if f.Plane > PlaneControl {
		return errBadPlane
	}
	f.From = binary.LittleEndian.Uint16(b[1:])
	f.To = binary.LittleEndian.Uint16(b[3:])
	count := int(binary.LittleEndian.Uint16(b[5:]))
	b = b[FrameHeaderSize:]
	f.Msgs = f.Msgs[:0]
	for i := 0; i < count; i++ {
		if len(b) < msgHeaderSize {
			return errTruncated
		}
		m := f.AddMsg()
		m.Kind = b[0]
		m.TxnID = binary.LittleEndian.Uint64(b[1:])
		b = b[msgHeaderSize:]
		switch m.Kind {
		case KindRelease, KindGrant:
		case KindAcquire:
			if len(b) < acquireHeaderSize {
				return errTruncated
			}
			m.Owner = binary.LittleEndian.Uint16(b)
			nhops := int(binary.LittleEndian.Uint16(b[2:]))
			b = b[acquireHeaderSize:]
			// Cheap length pre-check bounds the work (and the slice
			// growth below) by the input length before any loop runs.
			if len(b) < nhops*hopHeaderSize {
				return errTruncated
			}
			for j := 0; j < nhops; j++ {
				if len(b) < hopHeaderSize {
					return errTruncated
				}
				h := m.AddHop(binary.LittleEndian.Uint16(b))
				nops := int(binary.LittleEndian.Uint16(b[2:]))
				b = b[hopHeaderSize:]
				if len(b) < nops*opSize {
					return errTruncated
				}
				for k := 0; k < nops; k++ {
					mode := b[12]
					if mode > uint8(txn.Write) {
						return errBadMode
					}
					h.Ops = append(h.Ops, txn.Op{
						Table: int(binary.LittleEndian.Uint32(b)),
						Key:   binary.LittleEndian.Uint64(b[4:]),
						Mode:  txn.Mode(mode),
					})
					b = b[opSize:]
				}
			}
		default:
			return errBadKind
		}
	}
	if len(b) != 0 {
		return errTrailing
	}
	return nil
}

package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Redo record wire format (little-endian):
//
//	magic      uint16  — recMagic, cheap torn-tail detector
//	nWrites    uint16  — entries in the payload
//	payloadLen uint32  — payload bytes following the header
//	lsn        uint64  — commit sequence number, assigned at pre-commit
//	crc        uint32  — CRC-32C over header[2:16] + payload
//	payload    — nWrites × (table uint32 | key uint64 | valLen uint32 | val)
//
// The CRC covers the counts and the LSN, so a record whose tail was torn
// by a crash — or whose header bytes are garbage from a partial write —
// fails validation instead of decoding into a wrong-but-plausible redo.
const (
	recMagic  = 0x57A1
	recHeader = 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// redoWrite is one captured after-image: the record payload of (table,
// key) as it stands at pre-commit. val aliases live table memory between
// Note and encode; the encode happens while the transaction still holds
// its locks, so the bytes are the transaction's own committed images.
type redoWrite struct {
	table int32
	key   uint64
	val   []byte
}

// appendRecord encodes one redo record onto buf and returns the extended
// slice. Capped at 65535 writes per transaction by the uint16 count —
// orders of magnitude beyond any workload in this repository.
func appendRecord(buf []byte, lsn uint64, writes []redoWrite) []byte {
	if len(writes) > 0xFFFF {
		panic("wal: transaction write set exceeds 65535 records")
	}
	payload := 0
	for _, w := range writes {
		payload += 16 + len(w.val)
	}
	base := len(buf)
	//orthrus:allow(noalloc) append-of-make is the compiler-recognized zero-extension idiom; buf growth amortizes
	buf = append(buf, make([]byte, recHeader+payload)...)
	h := buf[base:]
	binary.LittleEndian.PutUint16(h[0:2], recMagic)
	binary.LittleEndian.PutUint16(h[2:4], uint16(len(writes)))
	binary.LittleEndian.PutUint32(h[4:8], uint32(payload))
	binary.LittleEndian.PutUint64(h[8:16], lsn)
	p := h[recHeader:]
	for _, w := range writes {
		binary.LittleEndian.PutUint32(p[0:4], uint32(w.table))
		binary.LittleEndian.PutUint64(p[4:12], w.key)
		binary.LittleEndian.PutUint32(p[12:16], uint32(len(w.val)))
		copy(p[16:], w.val)
		p = p[16+len(w.val):]
	}
	crc := crc32.Checksum(h[2:16], crcTable)
	crc = crc32.Update(crc, crcTable, h[recHeader:recHeader+payload])
	binary.LittleEndian.PutUint32(h[16:20], crc)
	return buf
}

// decodeRecord validates the record at the head of data and returns its
// LSN, its payload (nextWrite walks it) and the bytes it consumed. ok is
// false when the head is not a complete, checksum-valid record whose
// payload parses into exactly its counted writes — the torn-tail (or
// torn-middle) signal that stops a replay scan. It allocates nothing.
func decodeRecord(data []byte) (lsn uint64, payload []byte, n int, ok bool) {
	if len(data) < recHeader {
		return 0, nil, 0, false
	}
	if binary.LittleEndian.Uint16(data[0:2]) != recMagic {
		return 0, nil, 0, false
	}
	nw := int(binary.LittleEndian.Uint16(data[2:4]))
	size := int(binary.LittleEndian.Uint32(data[4:8]))
	if size < 0 || len(data) < recHeader+size || nw*16 > size {
		return 0, nil, 0, false
	}
	crc := crc32.Checksum(data[2:16], crcTable)
	crc = crc32.Update(crc, crcTable, data[recHeader:recHeader+size])
	if crc != binary.LittleEndian.Uint32(data[16:20]) {
		return 0, nil, 0, false
	}
	payload = data[recHeader : recHeader+size : recHeader+size]
	p := payload
	for i := 0; i < nw; i++ {
		if len(p) < 16 {
			return 0, nil, 0, false
		}
		vlen := int(binary.LittleEndian.Uint32(p[12:16]))
		if len(p) < 16+vlen {
			return 0, nil, 0, false
		}
		p = p[16+vlen:]
	}
	if len(p) != 0 {
		return 0, nil, 0, false
	}
	return binary.LittleEndian.Uint64(data[8:16]), payload, recHeader + size, true
}

// nextWrite decodes the first write of a payload decodeRecord validated
// and returns the rest. val aliases the payload.
func nextWrite(p []byte) (redoWrite, []byte) {
	vlen := int(binary.LittleEndian.Uint32(p[12:16]))
	return redoWrite{
		table: int32(binary.LittleEndian.Uint32(p[0:4])),
		key:   binary.LittleEndian.Uint64(p[4:12]),
		val:   p[16 : 16+vlen : 16+vlen],
	}, p[16+vlen:]
}

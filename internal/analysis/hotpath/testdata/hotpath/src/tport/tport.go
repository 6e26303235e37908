// Package tport models the networked message plane's division of
// labour: the enqueue path threads run (pool get, batch fill,
// select-default handoff) must stay hot-path clean, while the socket
// I/O lives behind //orthrus:coldpath writer/reader goroutines. It pins
// that a pooled, select-default hand-off in front of socket I/O passes
// the analyzer.
package tport

import (
	"net"
	"sync"
)

type frame struct{ msgs []int }

type peer struct {
	pool sync.Pool
	out  chan *frame
	conn net.Conn
}

// tryEnqueueBatch is the transport's hot boundary: everything before
// the writer channel. No socket call, no blocking send — backpressure
// is the select default, exactly like a full SPSC ring.
//
//orthrus:hotpath
func (p *peer) tryEnqueueBatch(vs []int) int {
	f := p.pool.Get().(*frame)
	f.msgs = append(f.msgs[:0], vs...)
	select {
	case p.out <- f:
		return len(vs)
	default:
	}
	return 0
}

// writeLoop is the sanctioned home for the socket write: a dedicated
// goroutine behind a justified coldpath boundary.
//
//orthrus:coldpath testdata: dedicated writer goroutine; socket writes block by design
func (p *peer) writeLoop(buf []byte) {
	for range p.out {
		p.conn.Write(buf)
	}
}

// flush hands frames to the writer; the boundary keeps it clean.
//
//orthrus:hotpath
func (p *peer) flush() {
	go p.writeLoop(nil)
}

// sendInline is the violation this package exists to catch: network I/O
// and a blocking writer-channel send reached from a hot root. (Interface
// dispatch like conn.Write is invisible to the static walk — which is
// exactly why the real transport routes every socket call through the
// coldpath writer goroutine rather than leaning on the analyzer.)
//
//orthrus:hotpath
func (p *peer) sendInline(f *frame, addr string) {
	p.out <- f            // want `blocking channel send on the hot path`
	net.Dial("tcp", addr) // want `calls net.Dial \(network I/O\) on the hot path`
}

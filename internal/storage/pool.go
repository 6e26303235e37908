package storage

import "sync"

// poolChunk is the number of records carved from the arena per refill.
const poolChunk = 1024

// Pool hands out fixed-size record buffers carved from large arenas so the
// hot path performs no per-record Go allocations. It mirrors the paper's
// 2PL baseline discipline of "a pre-allocated ... pool of memory".
type Pool struct {
	size int

	mu    sync.Mutex
	arena []byte // current arena being carved
}

// NewPool returns a pool of size-byte buffers.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic("storage: pool buffer size must be positive")
	}
	return &Pool{size: size}
}

// Get returns a zeroed size-byte buffer.
func (p *Pool) Get() []byte {
	p.mu.Lock()
	if len(p.arena) < p.size {
		p.arena = make([]byte, p.size*poolChunk)
	}
	buf := p.arena[:p.size:p.size]
	p.arena = p.arena[p.size:]
	p.mu.Unlock()
	return buf
}

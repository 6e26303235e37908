package orthrus

import "repro/internal/spsc"

// outbox is one sender's buffer in front of one ring: the messages it has
// generated for that ring and the ring has not yet taken, in send order.
// Every sender — exec thread, CC thread, net stepper — keeps one per
// destination ring, bound when the sender is built. The ring is the same
// concrete type whoever consumes it: a thread on this node, or the net
// stepper framing it for the peer.
type outbox struct {
	q   *spsc.Ring[message]
	buf []message
}

// push appends m and publishes once batch messages are waiting. With a
// batch of 1 every message is offered at once — the unbatched plane.
func (o *outbox) push(m message, batch int, ops *opCounter) {
	o.buf = append(o.buf, m)
	if len(o.buf) >= batch {
		o.flush(ops)
	}
}

// flush publishes the head of buf to q in batches, counting one ring
// operation per publish, and reports whether it published anything. It
// never waits: when the ring is full the unpublished tail stays in buf —
// outboxes are persistent and FIFO, and every push appends behind it —
// and the owner's next step offers it again. Nobody blocks and every step
// retries; that is the whole liveness argument. A sender cannot wait for
// room because the ring's consumer may be the next logical thread in the
// same worker's sweep (worker.go), and it need not: a consumer's step
// drains its input rings unconditionally, whatever the state of its own
// outboxes, so a full ring has room again after its consumer's next step.
//
// It consumes nothing and calls no handlers, so it is safe to invoke
// from inside any drain loop — the caller's scratch buffers and outboxes
// cannot be mutated underneath it.
func (o *outbox) flush(ops *opCounter) bool {
	published := false
	for len(o.buf) > 0 {
		n := o.q.TryEnqueueBatch(o.buf)
		if n == 0 {
			break
		}
		ops.enq++
		published = true
		o.buf = append(o.buf[:0], o.buf[n:]...)
	}
	return published
}

// outboxes is one sender's outboxes, one per destination ring.
type outboxes []outbox

// newOutboxes binds one outbox to each ring.
func newOutboxes(qs []*spsc.Ring[message]) outboxes {
	out := make(outboxes, len(qs))
	for i, q := range qs {
		out[i].q = q
	}
	return out
}

// flushAll offers every non-empty outbox to its ring, in order, and
// reports whether anything was published.
func (out outboxes) flushAll(ops *opCounter) bool {
	published := false
	for i := range out {
		if len(out[i].buf) > 0 && out[i].flush(ops) {
			published = true
		}
	}
	return published
}

// empty reports that every message the sender generated is in a ring.
func (out outboxes) empty() bool {
	for i := range out {
		if len(out[i].buf) > 0 {
			return false
		}
	}
	return true
}

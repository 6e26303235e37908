package orthrus

import (
	"slices"
	"testing"

	"repro/internal/spsc"
)

// smallBox is an outbox in front of a fresh two-slot ring.
func smallBox() (outbox, *spsc.Ring[message]) {
	r := spsc.New[message](2)
	return outbox{q: r}, r
}

// msg is a message naming its transaction by wire id alone.
func msg(id uint64) message { return message{w: &wrapper{id: id}} }

// drain empties r and returns the ids it held, oldest first.
func drain(r *spsc.Ring[message]) []uint64 {
	var ids []uint64
	for {
		m, ok := r.TryDequeue()
		if !ok {
			return ids
		}
		ids = append(ids, m.w.id)
	}
}

// Below the batch nothing publishes; the push that reaches it publishes
// the whole batch with one ring operation.
func TestOutboxPublishesAtBatch(t *testing.T) {
	o, r := smallBox()
	var ops opCounter
	o.push(msg(1), 2, &ops)
	if r.Len() != 0 || len(o.buf) != 1 || ops.enq != 0 {
		t.Fatalf("below the batch: ring %d, buffered %d, enq %d; want 0, 1, 0", r.Len(), len(o.buf), ops.enq)
	}
	o.push(msg(2), 2, &ops)
	if r.Len() != 2 || len(o.buf) != 0 || ops.enq != 1 {
		t.Fatalf("at the batch: ring %d, buffered %d, enq %d; want 2, 0, 1", r.Len(), len(o.buf), ops.enq)
	}
	if got := drain(r); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("ring delivered %v, want [1 2]", got)
	}
}

// A full ring takes what fits and leaves the tail in the outbox, in send
// order; pushes land behind it, and the next flush after the consumer
// drains delivers it first.
func TestOutboxFullRingKeepsTailInOrder(t *testing.T) {
	o, r := smallBox()
	var ops opCounter
	for id := uint64(1); id <= 3; id++ {
		o.push(msg(id), 8, &ops)
	}
	if !o.flush(&ops) || r.Len() != 2 || !slices.Equal(idsOf(o.buf), []uint64{3}) {
		t.Fatalf("first flush: ring %d, tail %v; want 2 and [3]", r.Len(), idsOf(o.buf))
	}
	o.push(msg(4), 8, &ops)
	if o.flush(&ops) {
		t.Fatal("flush into a full ring reported progress")
	}
	if got := drain(r); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("ring delivered %v, want [1 2]", got)
	}
	if !o.flush(&ops) || len(o.buf) != 0 {
		t.Fatalf("flush after the drain left %v", idsOf(o.buf))
	}
	if got := drain(r); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("ring delivered %v, want [3 4]", got)
	}
	if ops.enq != 2 {
		t.Fatalf("%d ring operations, want 2 (one per publishing flush)", ops.enq)
	}
}

// idsOf lists the ids of ms in order.
func idsOf(ms []message) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.w.id
	}
	return out
}

// flushAll reports progress only when a message moved into a ring, and
// empty holds once every outbox's tail has reached its ring.
func TestOutboxesFlushAllAndEmpty(t *testing.T) {
	a, ra := smallBox()
	b, _ := smallBox()
	out := outboxes{a, b}
	var ops opCounter
	if out.flushAll(&ops) || !out.empty() {
		t.Fatal("empty outboxes: flushAll reported progress or empty is false")
	}
	for id := uint64(1); id <= 3; id++ {
		out[0].push(msg(id), 8, &ops)
	}
	if !out.flushAll(&ops) || out.empty() {
		t.Fatal("first flushAll: want progress and a tail left behind")
	}
	if out.flushAll(&ops) {
		t.Fatal("flushAll into a full ring reported progress")
	}
	drain(ra)
	if !out.flushAll(&ops) || !out.empty() {
		t.Fatal("flushAll after the drain: want progress and empty outboxes")
	}
	if out.flushAll(&ops) {
		t.Fatal("flushAll with nothing buffered reported progress")
	}
}

// Steady push, flush and drain allocate nothing once the buffer has grown.
func TestOutboxSteadyStateAllocsNothing(t *testing.T) {
	o, r := smallBox()
	var ops opCounter
	buf := make([]message, 2)
	var ws [3]wrapper
	step := func() {
		for i := range ws {
			o.push(message{w: &ws[i]}, 2, &ops)
		}
		o.flush(&ops)
		for r.DequeueBatch(buf) > 0 {
			o.flush(&ops)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady push/flush: %v allocs per round, want 0", allocs)
	}
	if !(outboxes{o}).empty() {
		t.Fatal("outbox not empty after the consumer drained")
	}
}

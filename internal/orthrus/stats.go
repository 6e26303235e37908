package orthrus

// CCStats is one CC thread's share of the message plane — the per-thread
// load breakdown the batching experiment reports. Acquires, Forwards and
// Releases count messages this thread handled (received and processed);
// Grants counts grants it issued. Summed across threads they equal the
// corresponding MessageStats totals — a conservation check the test
// suite asserts.
type CCStats struct {
	Acquires uint64 // exec → this CC acquire messages handled
	Forwards uint64 // CC → this CC forwarded acquires handled
	Releases uint64 // release messages handled
	Grants   uint64 // grant messages issued by this CC
	// QueueHighWater is the largest number of messages drained in one
	// pass over this thread's input rings — a backlog proxy: a thread
	// that keeps up drains small batches, a bottleneck thread finds its
	// rings full.
	QueueHighWater int
}

// Handled returns the messages this CC thread processed.
func (s CCStats) Handled() uint64 { return s.Acquires + s.Forwards + s.Releases }

// MessageStats counts message-plane traffic for one session (the quantity
// §3.3 optimizes: forwarding reduces per-acquisition messages from 2·Ncc
// to Ncc+1).
type MessageStats struct {
	Acquires uint64 // exec → CC acquire messages
	Forwards uint64 // CC → CC forwarded acquires
	Grants   uint64 // CC → exec grant/partial-grant messages
	Releases uint64 // exec → CC release messages

	// EnqueueOps and DequeueOps count transport operations — one per
	// batch publish on the producer side and one per batch consume on
	// the consumer side. On the SPSC ring each operation is a single
	// atomic store, so with BatchSize=1 each counter equals
	// TotalMessages() and with batching they fall toward
	// TotalMessages()/k — the saving the batched message plane exists
	// for.
	EnqueueOps uint64
	DequeueOps uint64

	// PerCC is the per-CC-thread breakdown (receive-side counted, so
	// summing a field across PerCC cross-checks the send-side totals
	// above).
	PerCC []CCStats

	// ExecBatch is each execution thread's publish batch: the configured
	// Config.BatchSize (DefaultBatchSize when left 0) in every entry.
	ExecBatch []int

	// Net counts the session's wire traffic — zero on the in-process
	// plane, per-node frame/message/byte counters on the tcp transport.
	Net NetStats

	// Workers is how many goroutines served this node's logical threads:
	// min(hosted CC + execution threads, plus the net stepper on the tcp
	// transport, GOMAXPROCS) at Start. Equal to the thread count it is the
	// paper's one-thread-per-core layout; smaller, the threads were folded
	// (worker.go) and a result measured this way should say so. Read-only:
	// it reports, it does not configure.
	Workers int
}

// AcquisitionMessages returns the messages spent acquiring locks
// (everything except releases, which both protocols pay identically).
func (m MessageStats) AcquisitionMessages() uint64 {
	return m.Acquires + m.Forwards + m.Grants
}

// TotalMessages returns all messages that crossed the message plane.
func (m MessageStats) TotalMessages() uint64 {
	return m.Acquires + m.Forwards + m.Grants + m.Releases
}

// MessagesPerEnqueue reports the achieved producer-side batching factor:
// messages sent per ring publish operation (1 when unbatched).
func (m MessageStats) MessagesPerEnqueue() float64 {
	if m.EnqueueOps == 0 {
		return 0
	}
	return float64(m.TotalMessages()) / float64(m.EnqueueOps)
}

// opCounter is a thread-local tally of the messages a logical thread sent
// and the ring operations it performed, added to the runState's when the
// thread retires: a shared counter bumped per message (five per commit,
// from every thread) would cost what the batched message plane saves.
type opCounter struct {
	acquires, forwards, grants, releases uint64 // messages sent
	enq, deq                             uint64 // ring operations
}

func (o *opCounter) flush(s *runState) {
	s.opsMu.Lock()
	s.ops.acquires += o.acquires
	s.ops.forwards += o.forwards
	s.ops.grants += o.grants
	s.ops.releases += o.releases
	s.ops.enq += o.enq
	s.ops.deq += o.deq
	s.opsMu.Unlock()
	*o = opCounter{}
}

package orthrus

// Adaptive message-plane batching (Config.BatchSize = 0).
//
// A static batch size is the wrong constant at both ends of the load
// range: under saturation a large batch amortizes ring traffic (k
// messages per atomic publish), but at low load the same batch holds a
// lone transaction's acquire in the outbox until the end-of-step
// flushAll pushes it out, inflating latency for no amortization gain.
// Instead of asking the operator to pick, each execution thread runs a
// small AIMD controller driven by the one signal that actually predicts
// whether batching pays: how many messages the thread publishes per step
// (pass).
//
//   - If a majority of active passes in a decision window fill the
//     current batch before the end-of-pass flush, the batch is the
//     binding constraint on amortization: additive increase, +1 per
//     window, toward maxAdaptiveBatch.
//   - If a majority of active passes publish no more than half a batch,
//     the batch is pure publish delay: multiplicative decrease, halve
//     toward 1 (where every message publishes immediately — the
//     unbatched plane).
//   - The band in between is hysteresis: hold.
//
// Only passes that made progress contribute samples. Idle polls are two
// orders of magnitude faster than work passes, so on a busy host a
// pass-count majority over all passes is dominated by how the OS
// scheduler interleaves threads, not by traffic; and a pass that moved
// no messages says nothing about whether the batch is sized right.
// Queue depth is equally misleading as a signal: a closed-loop driver
// keeps the shared submission queue near-empty (clients block on
// completion), and a thread waking from an idle sleep always sees a
// transient backlog — both invert the truth.
//
// Decisions are taken once per batchWindow samples so a single burst or
// stall cannot whip the batch around. The controller starts at
// DefaultBatchSize, so a saturated run behaves like the historical
// static default from the first pass and adapts from there.
//
// CC threads keep a fixed batch (ccBatchSize): their drain passes consume
// whatever is available and their outboxes are flushed every pass, so
// batch size barely affects their latency contribution; the adaptive
// signal (per-pass publish volume) is only meaningful on the exec side,
// where transactions enter the message plane.

const (
	// maxAdaptiveBatch caps additive growth. The static sweep (the
	// batching experiment) shows per-message amortization is flat past
	// the default, while worst-case publish delay keeps growing with the
	// batch — so the ceiling stays modest.
	maxAdaptiveBatch = 32
	// batchWindow is the number of active-pass samples per AIMD decision.
	batchWindow = 32
)

// batchController is the per-exec-thread AIMD governor. It is a pure
// state machine — observe is the only entry point — so its convergence
// behaviour is unit-testable without an engine.
type batchController struct {
	batch   int
	samples int
	hi      int // active passes that filled the batch before the flush
	lo      int // active passes that published at most half a batch
}

func newBatchController() *batchController {
	return &batchController{batch: DefaultBatchSize}
}

// observe records one step — pushed is the number of messages the
// pass published, progress whether it did any work at all — and returns
// the batch size to use next. Idle passes are not samples. At each
// window boundary: a filled-batch majority grows the batch by one, a
// half-empty majority halves it; the hysteresis band holds.
func (b *batchController) observe(pushed int, progress bool) int {
	if !progress {
		return b.batch
	}
	if pushed >= b.batch {
		b.hi++
	} else if 2*pushed <= b.batch {
		b.lo++
	}
	b.samples++
	if b.samples < batchWindow {
		return b.batch
	}
	hi, lo := b.hi, b.lo
	b.samples, b.hi, b.lo = 0, 0, 0
	switch {
	case hi > batchWindow/2:
		if b.batch < maxAdaptiveBatch {
			b.batch++
		}
	case lo > batchWindow/2:
		b.batch /= 2
		if b.batch < 1 {
			b.batch = 1
		}
	}
	return b.batch
}

// ccBatchSize is the CC threads' (always static) drain/publish batch.
func ccBatchSize(cfg Config) int {
	if cfg.BatchSize > 0 {
		return cfg.BatchSize
	}
	return DefaultBatchSize
}

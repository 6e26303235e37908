package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	closedWindow = 32   // transactions outstanding in the closed phase
	openSlots    = 4096 // ceiling on outstanding arrivals in the open phase
	traceEvery   = 64   // 1-in-64 submissions carry spans in the traced pass

	lateNs      = 100_000   // an arrival submitted > 100µs late counts as late
	overLimitNs = 1_000_000 // the open phase's latency limit: 1 ms
)

// slot is one pre-allocated submission: its timestamps and its completion
// callback. The driver owns a slot from the moment it takes the index off
// the free channel until Submit; the engine's completing thread then
// writes done/ok and returns the index, which orders those writes before
// the driver's next read. All times are ns since driver.base.
type slot struct {
	d   *driver
	idx int32
	fn  func(bool) // bound once to complete

	seq    int64 // submission index; -1 once harvested (or never used)
	sched  int64 // scheduled arrival (open) or submit instant (closed)
	sub0   int64 // Submit entered
	sub1   int64 // Submit returned (traced submissions only)
	gen0   int64 // workload.Next entered / returned (traced only)
	gen1   int64
	done   int64
	ok     bool
	rmw    bool
	traced bool

	_ [40]byte // completing threads write done/ok: keep neighbours off the line
}

func (s *slot) complete(ok bool) {
	s.ok = ok
	s.done = s.d.now()
	s.d.free <- s.idx // never blocks: the channel holds every slot
}

// driver is the benchmark's single load-generating goroutine: it owns the
// rng (so every input derives from the seed), the slots, and all
// accounting. It allocates nothing per transaction.
type driver struct {
	ses  engine.Session
	src  workload.Source
	rng  *rand.Rand
	base time.Time

	slots []slot
	free  chan int32

	seq       int64
	phase     *phaseRec // nil during warm-up: samples are discarded
	spans     *spanBuf  // nil when tracing is off
	submitted uint64
	committed uint64
	rmwOK     uint64 // committed read-modify-write transactions
	readOnly  uint64 // read-only (snapshot) submissions
	failed    uint64 // done(false)
}

func newDriver(ses engine.Session, src workload.Source, seed int64) *driver {
	d := &driver{
		ses:   ses,
		src:   src,
		rng:   rand.New(rand.NewSource(seed)),
		base:  time.Now(),
		slots: make([]slot, openSlots),
		free:  make(chan int32, openSlots),
	}
	for i := range d.slots {
		s := &d.slots[i]
		s.d, s.idx, s.seq = d, int32(i), -1
		s.fn = s.complete
	}
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) }

// arm empties the free channel and hands out the first n slots: n is the
// number of transactions that can be outstanding in the coming phase.
// Only valid while nothing is in flight.
func (d *driver) arm(n int) {
	for len(d.free) > 0 {
		<-d.free
	}
	for i := 0; i < n; i++ {
		d.free <- int32(i)
	}
}

// take blocks until a slot is free — in the closed phase this is where
// the driver parks while the window is full — and accounts for the
// slot's previous submission.
func (d *driver) take() *slot {
	s := &d.slots[<-d.free]
	d.harvest(s)
	return s
}

// next generates the following transaction. In the open phase this runs
// in the gap before the arrival is due, off the timed path.
func (d *driver) next(s *slot) *txn.Txn {
	s.traced = d.spans != nil && d.seq%traceEvery == 0
	if s.traced {
		s.gen0 = d.now()
	}
	t := d.src.Next(0, d.rng)
	if s.traced {
		s.gen1 = d.now()
	}
	s.rmw = !t.ReadOnly
	return t
}

// send submits t; sched is the instant latency is timed from and now the
// instant the driver got to it (equal in the closed phase).
func (d *driver) send(s *slot, t *txn.Txn, sched, now int64) {
	s.seq = d.seq
	d.seq++
	s.sched, s.sub0 = sched, now
	d.submitted++
	if !s.rmw {
		d.readOnly++
	}
	traced := s.traced // the slot may complete and be re-read only after Submit
	d.ses.Submit(t, s.fn)
	if traced {
		s.sub1 = d.now()
	}
}

// harvest accounts for a completed submission exactly once.
func (d *driver) harvest(s *slot) {
	if s.seq < 0 {
		return
	}
	if s.ok {
		d.committed++
		if s.rmw {
			d.rmwOK++
		}
	} else {
		d.failed++
	}
	if d.phase != nil {
		d.phase.record(s)
		if s.traced {
			d.spans.add(d.phase.kind, s)
		}
	}
	s.seq = -1
}

// settle drains the session and accounts for every outstanding slot.
func (d *driver) settle() {
	d.ses.Drain()
	for i := range d.slots {
		d.harvest(&d.slots[i])
	}
}

// warmup runs n closed-loop transactions whose samples are discarded.
func (d *driver) warmup(n int) {
	d.phase = nil
	d.arm(closedWindow)
	for i := 0; i < n; i++ {
		s := d.take()
		now := d.now()
		d.send(s, d.next(s), now, now)
	}
	d.settle()
}

// closed runs one closed-loop segment that fills ph's next n windows: it
// keeps closedWindow transactions outstanding, parking whenever the
// window is full.
func (d *driver) closed(ph *phaseRec, n int) {
	d.arm(closedWindow)
	d.phase = ph
	end := ph.begin(d.now(), n)
	for {
		s := d.take()
		t := d.next(s)
		now := d.now()
		if now >= end {
			// The transaction is generated but never submitted; return
			// it to the generator's pool.
			if t.Free != nil {
				t.Free()
			}
			break
		}
		d.send(s, t, now, now)
	}
	d.settle()
	ph.elapsed += d.now() - ph.segStart
	d.phase = nil
}

// open runs one open-loop segment that fills ph's next n windows: it
// submits one transaction per scheduled arrival (schedule holds offsets in
// ns on the phase's timeline, of which this segment starts at origin),
// whether or not earlier ones have completed. Each is
// generated ahead of its arrival and timed from the *scheduled* instant,
// so when the system (or the generator) falls behind, the wait is charged
// to latency instead of being coordinated away.
func (d *driver) open(ph *phaseRec, n int, schedule []int64, origin int64) {
	d.arm(openSlots)
	d.phase = ph
	ph.begin(d.now(), n)
	for _, off := range schedule {
		s := d.take()
		t := d.next(s)
		due := ph.segStart + off - origin
		d.send(s, t, due, d.waitUntil(due))
	}
	d.settle()
	ph.elapsed += d.now() - ph.segStart
	d.phase = nil
}

// waitUntil returns the first instant at or after due the driver
// observes: a coarse sleep for the bulk, then a yielding spin for the tail
// the OS timer cannot hit.
func (d *driver) waitUntil(due int64) int64 {
	for {
		now := d.now()
		switch gap := due - now; {
		case gap <= 0:
			return now
		case gap > int64(time.Millisecond):
			time.Sleep(time.Duration(gap) - 500*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// poissonSchedule precomputes the open phase's arrival offsets (ns) from
// its own seeded stream, so the timeline does not depend on how many
// random numbers each transaction consumed.
func poissonSchedule(seed int64, rate float64, length time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_a881_7a15))
	out := make([]int64, 0, int(rate*length.Seconds()*1.1)+16)
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate * float64(time.Second)
		if at >= float64(length) {
			return out
		}
		out = append(out, int64(at))
	}
}

// phaseRec is one measured phase cut into equal windows. The closed phase
// windows a sample by its completion time (throughput is commits per
// window); the open phase by its scheduled arrival. A phase is driven in
// several segments, interleaved with the other phases' (see runPass);
// each segment fills the next few windows.
type phaseRec struct {
	kind   string // "closed" or "open"
	winLen int64
	lat    *recorder
	win    []windowRec

	segStart int64 // current segment: start time and window range
	segFirst int
	segEnd   int
	elapsed  int64 // summed over segments: start → settled

	// From the traced submissions only (spans around public calls).
	nextNs   []float64 // workload.Next
	submitNs []float64 // Session.Submit
	commitNs []float64 // Submit return → done
}

type windowRec struct {
	n         int   // samples in the window
	overLimit int   // latency over 1 ms, failures included
	late      int   // submitted > 100µs after the scheduled arrival
	maxLag    int64 // worst submit lag behind schedule
}

func newPhase(kind string, winLen time.Duration, windows, capPerWindow int) *phaseRec {
	return &phaseRec{
		kind:   kind,
		winLen: int64(winLen),
		lat:    newRecorder(windows, capPerWindow),
		win:    make([]windowRec, windows),
	}
}

// begin starts a segment over the next n windows and returns its end.
func (ph *phaseRec) begin(now int64, n int) int64 {
	ph.segStart, ph.segFirst, ph.segEnd = now, ph.segEnd, ph.segEnd+n
	if ph.segEnd > len(ph.win) {
		panic("bench: phase driven past its windows")
	}
	return now + ph.winLen*int64(n)
}

func (ph *phaseRec) record(s *slot) {
	at := s.sched
	if ph.kind == "closed" {
		at = s.done
	}
	w := ph.segFirst + int((at-ph.segStart)/ph.winLen)
	if at < ph.segStart || w >= ph.segEnd {
		return // completed during the segment's drain
	}
	lat := s.done - s.sched
	wr := &ph.win[w]
	wr.n++
	if s.ok {
		ph.lat.add(w, lat)
	}
	if !s.ok || lat > overLimitNs {
		wr.overLimit++
	}
	lag := s.sub0 - s.sched
	if lag > lateNs {
		wr.late++
	}
	if lag > wr.maxLag {
		wr.maxLag = lag
	}
	if s.traced {
		ph.nextNs = append(ph.nextNs, float64(s.gen1-s.gen0))
		ph.submitNs = append(ph.submitNs, float64(s.sub1-s.sub0))
		// A completion can beat Submit's return; that is a zero wait.
		ph.commitNs = append(ph.commitNs, float64(max(s.done-s.sub1, 0)))
	}
}

// throughputs returns committed transactions per second in each window.
func (ph *phaseRec) throughputs() []float64 {
	out := make([]float64, len(ph.win))
	for i, n := range ph.lat.counts() {
		out[i] = float64(n) / (float64(ph.winLen) / 1e9)
	}
	return out
}

// lateFracs returns each window's share of late arrivals.
func (ph *phaseRec) lateFracs() []float64 {
	out := make([]float64, 0, len(ph.win))
	for _, w := range ph.win {
		if w.n > 0 {
			out = append(out, float64(w.late)/float64(w.n))
		}
	}
	return out
}

func (ph *phaseRec) totals() (n, overLimit int, maxLag int64) {
	for _, w := range ph.win {
		n += w.n
		overLimit += w.overLimit
		maxLag = max(maxLag, w.maxLag)
	}
	return
}

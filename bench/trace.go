package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// spanBuf holds the traced pass's spans in a fixed-size in-memory buffer;
// they are written out only when the run ends. Spans are recorded from
// the benchmark's side of the public API: the root "txn" span of a
// sampled submission and its children workload.next, engine.submit
// (Session.Submit) and engine.commit (Submit return → completion
// callback), all identified by the submission index.
type spanBuf struct {
	recs    []spanRec
	dropped int
}

type spanRec struct {
	phase                               string
	seq                                 int64
	sched, gen0, gen1, sub0, sub1, done int64
	ok                                  bool
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{recs: make([]spanRec, 0, capacity)} }

func (b *spanBuf) add(phase string, s *slot) {
	if len(b.recs) == cap(b.recs) {
		b.dropped++
		return
	}
	b.recs = append(b.recs, spanRec{phase: phase, seq: s.seq, sched: s.sched,
		gen0: s.gen0, gen1: s.gen1, sub0: s.sub0, sub1: s.sub1, done: s.done, ok: s.ok})
}

// write emits one JSON line per span: trace (the submission index every
// span of a transaction shares), span name, parent span, start and end in
// ns since the driver started, and on the root the phase, the scheduled
// arrival and the outcome.
func (b *spanBuf) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range b.recs {
		fmt.Fprintf(w, `{"trace":%d,"span":"txn","parent":null,"start_ns":%d,"end_ns":%d,"phase":%q,"sched_ns":%d,"committed":%t}`+"\n",
			r.seq, r.gen0, max(r.done, r.sub1), r.phase, r.sched, r.ok)
		fmt.Fprintf(w, `{"trace":%d,"span":"workload.next","parent":"txn","start_ns":%d,"end_ns":%d}`+"\n", r.seq, r.gen0, r.gen1)
		fmt.Fprintf(w, `{"trace":%d,"span":"engine.submit","parent":"txn","start_ns":%d,"end_ns":%d}`+"\n", r.seq, r.sub0, r.sub1)
		fmt.Fprintf(w, `{"trace":%d,"span":"engine.commit","parent":"txn","start_ns":%d,"end_ns":%d}`+"\n", r.seq, r.sub1, max(r.done, r.sub1))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

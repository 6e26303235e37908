package transport

import (
	"runtime"
	"testing"

	"repro/internal/spsc"
)

// BenchmarkTransportRoundTrip measures one message-plane round trip of
// an 8-message batch — an acquire batch out, a grant batch back — on the
// two backends: the in-process SPSC rings the engine uses by default,
// and the batched TCP path over a real loopback socket (encode, kernel,
// decode). The gap between the two is the cost of crossing a process
// boundary; benchgate pins both, and pins both at zero allocations.
func BenchmarkTransportRoundTrip(b *testing.B) {
	const batch = 8

	b.Run("inproc", func(b *testing.B) {
		there := spsc.New[Msg](64)
		back := spsc.New[Msg](64)
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]Msg, batch)
			for {
				n := 0
				for n < batch {
					got := there.DequeueBatch(buf[n:])
					if got == 0 {
						if there.Closed() && there.Len() == 0 {
							return
						}
						runtime.Gosched()
					}
					n += got
				}
				for i := 0; i < n; i++ {
					buf[i].Kind = KindGrant
				}
				for sent := 0; sent < n; {
					sent += back.TryEnqueueBatch(buf[sent:n])
				}
			}
		}()
		out := make([]Msg, batch)
		in := make([]Msg, batch)
		var f Frame
		fillAcquireBatch(&f, batch)
		copy(out, f.Msgs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for sent := 0; sent < batch; {
				sent += there.TryEnqueueBatch(out[sent:])
			}
			for n := 0; n < batch; {
				got := back.DequeueBatch(in[n:])
				if got == 0 {
					runtime.Gosched()
				}
				n += got
			}
		}
		b.StopTimer()
		there.Close()
		<-done
	})

	b.Run("tcp", func(b *testing.B) {
		pa, pb := newPeerPair(b, Config{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var f Frame
			for {
				if err := pb.Recv(&f); err != nil {
					return
				}
				if f.Plane == PlaneControl {
					return
				}
				r := pb.Get()
				r.Plane = PlaneCCExec
				r.From, r.To = f.To, f.From
				for i := range f.Msgs {
					m := r.AddMsg()
					m.Kind = KindGrant
					m.TxnID = f.Msgs[i].TxnID
				}
				pb.Send(r)
			}
		}()
		var rf Frame
		roundTrip := func() {
			f := pa.Get()
			fillAcquireBatch(f, batch)
			pa.Send(f)
			if err := pa.Recv(&rf); err != nil {
				b.Fatalf("recv: %v", err)
			}
		}
		for i := 0; i < 64; i++ {
			roundTrip() // warm pools and socket buffers before measuring
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		b.StopTimer()
		pa.SendGoodbye()
		pa.CloseSend()
		<-done
	})
}

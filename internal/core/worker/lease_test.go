package worker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// The tests below assert the payload-ownership rules with channel and
// quiesce handshakes only: none of them bounds a wall-clock interval.

// owned returns a data message marked the way the transport's receive path
// marks a payload it decoded into a pooled buffer.
func owned(l uint64, b []byte) message.Message {
	m := message.Data(ts(l), b)
	m.Owned = true
	return m
}

// recycler records every buffer the worker returns to the pool, by the
// address of its first byte, and passes it on to the real pool. Register it
// before the worker so the worker stops before the hook is restored.
type recycler struct {
	mu  sync.Mutex
	got map[*byte]int
	n   int
}

func recordRecycles(t *testing.T) *recycler {
	t.Helper()
	r := &recycler{got: make(map[*byte]int)}
	prev := recycle
	recycle = func(b []byte) {
		r.mu.Lock()
		r.got[bufKey(b)]++
		r.n++
		r.mu.Unlock()
		prev(b)
	}
	t.Cleanup(func() { recycle = prev })
	return r
}

func (r *recycler) count(b []byte) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[bufKey(b)]
}

func (r *recycler) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// balanced fails the test unless exactly the want buffers were recycled,
// once each, and no lease is left.
func balanced(t *testing.T, w *Worker, r *recycler, want ...[]byte) {
	t.Helper()
	for _, b := range want {
		if n := r.count(b); n != 1 {
			t.Fatalf("buffer recycled %d times, want once", n)
		}
	}
	if n := r.total(); n != len(want) {
		t.Fatalf("%d buffers recycled, want %d", n, len(want))
	}
	if n := w.leases.outstanding(); n != 0 {
		t.Fatalf("%d leases outstanding, want 0", n)
	}
}

// gate holds the callbacks that wait on it until it is opened. Register
// open as a cleanup after the worker's, so that a failing test never
// leaves a callback blocked under the worker's Stop.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate  { return &gate{ch: make(chan struct{})} }
func (g *gate) wait() { <-g.ch }
func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

// bytesGraph is one []byte ingest stream consumed by the given operators.
func bytesGraph(t *testing.T, specs ...*operator.Spec) (*graph.Graph, stream.ID) {
	t.Helper()
	g := graph.New()
	in := g.AddStream("in", "[]byte")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		s.Inputs = append([]stream.ID{in}, s.Inputs...)
		if err := g.AddOperator(s); err != nil {
			t.Fatal(err)
		}
	}
	return g, in
}

func TestOwnedPayloadRecycledAfterLastConsumer(t *testing.T) {
	rec := recordRecycles(t)
	started, unblock := make(chan struct{}), newGate()
	var sawOwned atomic.Bool
	var first [2]atomic.Int32
	consumer := func(i int, block bool) *operator.Spec {
		return &operator.Spec{
			Name: []string{"slow", "fast"}[i],
			OnData: func(_ *operator.Context, _ int, m message.Message) {
				if block {
					close(started)
					unblock.wait()
				}
				if m.Owned {
					sawOwned.Store(true)
				}
				first[i].Store(int32(m.Payload.([]byte)[0]))
			},
		}
	}
	g, in := bytesGraph(t, consumer(0, true), consumer(1, false))
	fastDone := make(chan struct{}, 1)
	w := mustWorker(t, g, Options{WrapCallback: func(op string, f func()) func() {
		return func() {
			f()
			if op == "fast" {
				fastDone <- struct{}{}
			}
		}
	}})
	t.Cleanup(unblock.open)

	buf := make([]byte, 1024)
	buf[0] = 7
	if err := w.Inject(in, owned(1, buf)); err != nil {
		t.Fatal(err)
	}
	<-started
	<-fastDone
	// fast has returned and dropped its reference; slow still holds one.
	if n := rec.total(); n != 0 {
		t.Fatalf("buffer recycled while a consumer was still running (%d)", n)
	}
	if n := w.leases.outstanding(); n != 1 {
		t.Fatalf("%d leases outstanding while slow runs, want 1", n)
	}
	unblock.open()
	w.Quiesce()
	balanced(t, w, rec, buf)
	if first[0].Load() != 7 || first[1].Load() != 7 {
		t.Fatalf("consumers read %d/%d, want 7/7", first[0].Load(), first[1].Load())
	}
	if sawOwned.Load() {
		t.Fatal("a callback saw the Owned mark")
	}
}

func TestSendOnwardPinsOwnedPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(b []byte) []byte // nil: consume without sending
	}{
		{"whole", func(b []byte) []byte { return b }},
		{"subslice", func(b []byte) []byte { return b[3:5] }},
		{"capped-subslice", func(b []byte) []byte { return b[100:101:102] }},
		{"consumed", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := recordRecycles(t)
			g := graph.New()
			in := g.AddStream("in", "[]byte")
			out := g.AddStream("out", "[]byte")
			if err := g.MarkIngest(in); err != nil {
				t.Fatal(err)
			}
			if err := g.AddOperator(&operator.Spec{
				Name: "fwd", Inputs: []stream.ID{in}, Outputs: []stream.ID{out},
				OnData: func(ctx *operator.Context, _ int, m message.Message) {
					if tc.send != nil {
						_ = ctx.Send(0, m.Timestamp, tc.send(m.Payload.([]byte)))
					}
				},
			}); err != nil {
				t.Fatal(err)
			}
			w := mustWorker(t, g, Options{})
			// in's subscriber runs on the injecting goroutine, out's on the
			// lattice's.
			var sent atomic.Int32
			var sawOwned atomic.Bool
			for _, id := range []stream.ID{in, out} {
				if err := w.Subscribe(id, func(m message.Message) {
					if m.Owned {
						sawOwned.Store(true)
					}
					if m.IsData() && id == out {
						sent.Add(1)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 1024)
			if err := w.Inject(in, owned(1, buf)); err != nil {
				t.Fatal(err)
			}
			w.Quiesce()
			if sawOwned.Load() {
				t.Fatal("a subscriber saw the Owned mark")
			}
			if tc.send == nil {
				balanced(t, w, rec, buf)
				return
			}
			if n := sent.Load(); n != 1 {
				t.Fatalf("sent %d messages, want 1", n)
			}
			// Pinned: the lease is gone but the buffer stays out of the pool.
			balanced(t, w, rec)
		})
	}
}

func TestRetainOutlivesCallback(t *testing.T) {
	rec := recordRecycles(t)
	releases := make(chan func(), 2)
	g, in := bytesGraph(t, &operator.Spec{
		Name: "keeper",
		OnData: func(ctx *operator.Context, _ int, _ message.Message) {
			releases <- ctx.Retain()
		},
	})
	w := mustWorker(t, g, Options{})

	buf := make([]byte, 1024)
	if err := w.Inject(in, owned(1, buf)); err != nil {
		t.Fatal(err)
	}
	w.Quiesce()
	release := <-releases
	if n := rec.total(); n != 0 {
		t.Fatalf("retained buffer recycled when its callback returned (%d)", n)
	}
	if n := w.leases.outstanding(); n != 1 {
		t.Fatalf("%d leases outstanding while retained, want 1", n)
	}
	release()
	release() // idempotent
	balanced(t, w, rec, buf)

	// Retaining a payload the worker does not own is a no-op.
	plain := make([]byte, 1024)
	if err := w.Inject(in, message.Data(ts(2), plain)); err != nil {
		t.Fatal(err)
	}
	w.Quiesce()
	(<-releases)()
	balanced(t, w, rec, buf)
}

func TestSkippedDeliveriesBalance(t *testing.T) {
	t.Run("late", func(t *testing.T) {
		rec := recordRecycles(t)
		g, in := bytesGraph(t, &operator.Spec{
			Name:   "op",
			OnData: func(*operator.Context, int, message.Message) { t.Error("late data delivered") },
		})
		w := mustWorker(t, g, Options{})
		if err := w.Inject(in, message.Watermark(ts(5))); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		if err := w.Inject(in, owned(3, buf)); err == nil {
			t.Fatal("late data accepted by the stream")
		}
		w.Quiesce()
		balanced(t, w, rec, buf)
	})

	t.Run("stale", func(t *testing.T) {
		// A frequency deadline inserts W[1] inside the operator, so data at
		// t=1 still passes the stream and is stale-dropped by the operator.
		rec := recordRecycles(t)
		clk := deadline.NewManual(time.Unix(0, 0))
		g, in := bytesGraph(t, &operator.Spec{
			Name:               "op",
			OnData:             func(*operator.Context, int, message.Message) { t.Error("stale data delivered") },
			FrequencyDeadlines: []operator.FrequencyDeadlineSpec{{Name: "gap", Input: 0, Value: deadline.Static(10 * time.Millisecond)}},
		})
		w := mustWorker(t, g, Options{Clock: clk})
		if err := w.Inject(in, message.Watermark(ts(0))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(11 * time.Millisecond)
		w.Quiesce()
		buf := make([]byte, 1024)
		if err := w.Inject(in, owned(1, buf)); err != nil {
			t.Fatal(err)
		}
		w.Quiesce()
		if w.Stats().DroppedStale == 0 {
			t.Fatal("data was not stale-dropped")
		}
		balanced(t, w, rec, buf)
	})

	t.Run("aborted", func(t *testing.T) {
		// An Abort DEH takes t=1 over while its first callback runs: the
		// callback queued behind it is skipped, and data arriving after the
		// abort is never queued.
		rec := recordRecycles(t)
		clk := deadline.NewManual(time.Unix(0, 0))
		started, unblock := make(chan struct{}), newGate()
		var calls atomic.Int32
		g, in := bytesGraph(t, &operator.Spec{
			Name: "op",
			OnData: func(*operator.Context, int, message.Message) {
				if calls.Add(1) == 1 {
					close(started)
					unblock.wait()
				}
			},
			Deadlines: []operator.TimestampDeadlineSpec{{
				Name: "d", Output: operator.AllOutputs, Value: deadline.Static(10 * time.Millisecond),
				Policy: deadline.Abort, Handler: func(*operator.HandlerContext) {},
			}},
		})
		w := mustWorker(t, g, Options{Clock: clk})
		t.Cleanup(unblock.open)
		running, queued, late := make([]byte, 1024), make([]byte, 1024), make([]byte, 1024)
		if err := w.Inject(in, owned(1, running)); err != nil {
			t.Fatal(err)
		}
		<-started
		if err := w.Inject(in, owned(1, queued)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(20 * time.Millisecond)
		w.WaitHandlers()
		if err := w.Inject(in, owned(1, late)); err != nil {
			t.Fatal(err)
		}
		unblock.open()
		w.Quiesce()
		if n := calls.Load(); n != 1 {
			t.Fatalf("%d callbacks ran, want only the one started before the abort", n)
		}
		balanced(t, w, rec, running, queued, late)
	})

	// rewound and retired: callbacks queued behind a running one are
	// skipped when their timestamp is rewound or their operator retired; an
	// operator retired before delivery takes no reference at all.
	for _, retire := range []bool{false, true} {
		name := map[bool]string{false: "rewound", true: "retired"}[retire]
		t.Run(name, func(t *testing.T) {
			rec := recordRecycles(t)
			started, unblock := make(chan struct{}), newGate()
			var calls atomic.Int32
			g, in := bytesGraph(t, &operator.Spec{
				Name: "op",
				OnData: func(*operator.Context, int, message.Message) {
					if calls.Add(1) == 1 {
						close(started)
						unblock.wait()
					}
				},
			})
			w := mustWorker(t, g, Options{})
			t.Cleanup(unblock.open)
			running, queued := make([]byte, 1024), make([]byte, 1024)
			if err := w.Inject(in, owned(1, running)); err != nil {
				t.Fatal(err)
			}
			<-started
			if err := w.Inject(in, owned(2, queued)); err != nil {
				t.Fatal(err)
			}
			want := [][]byte{running, queued}
			if retire {
				w.Release(nil)
				after := make([]byte, 1024)
				if err := w.Inject(in, owned(3, after)); err != nil {
					t.Fatal(err)
				}
				want = append(want, after)
			} else {
				w.RewindOpen("op")
			}
			unblock.open()
			w.Quiesce()
			if n := calls.Load(); n != 1 {
				t.Fatalf("%d callbacks ran, want only the one started first", n)
			}
			balanced(t, w, rec, want...)
		})
	}
}

func TestUnownedPayloadNeverRecycled(t *testing.T) {
	rec := recordRecycles(t)
	var reads atomic.Int32
	read := func(name string) *operator.Spec {
		return &operator.Spec{
			Name: name,
			OnData: func(_ *operator.Context, _ int, m message.Message) {
				_ = m.Payload.([]byte)[0]
				reads.Add(1)
			},
		}
	}
	g, in := bytesGraph(t, read("a"), read("b"))
	w := mustWorker(t, g, Options{})
	// A driver's own 128 KiB buffer is exactly a pool size class; only the
	// Owned mark, never the capacity, may send a buffer to the pool.
	buf := make([]byte, 128<<10)
	if err := w.Inject(in, message.Data(ts(1), buf)); err != nil {
		t.Fatal(err)
	}
	w.Quiesce()
	if reads.Load() != 2 {
		t.Fatalf("%d reads, want 2", reads.Load())
	}
	balanced(t, w, rec)
	for i := 0; i < 16; i++ {
		if p := comm.AcquirePayload(len(buf)); bufKey(p) == bufKey(buf) {
			t.Fatal("an injected, unowned buffer came back out of the payload pool")
		}
	}
}

func TestStopLeavesNoLease(t *testing.T) {
	rec := recordRecycles(t)
	started, unblock := make(chan struct{}), newGate()
	var calls atomic.Int32
	g, in := bytesGraph(t, &operator.Spec{
		Name: "op",
		OnData: func(*operator.Context, int, message.Message) {
			if calls.Add(1) == 1 {
				close(started)
				unblock.wait()
			}
		},
	})
	w, err := New(g, Options{Local: true})
	if err != nil {
		t.Fatal(err)
	}
	running, queued := make([]byte, 1024), make([]byte, 1024)
	if err := w.Inject(in, owned(1, running)); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := w.Inject(in, owned(2, queued)); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		w.Stop()
		close(stopped)
	}()
	// Stop drops the queued callback before it waits for the running one.
	for {
		if _, pending := w.lat.Depth(); pending <= 1 {
			break
		}
		runtime.Gosched()
	}
	unblock.open()
	<-stopped
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d callbacks ran, want the queued one dropped", n)
	}
	// The running callback released normally; the dropped one's buffer is
	// left to the garbage collector, and no lease survives Stop.
	balanced(t, w, rec, running)
}

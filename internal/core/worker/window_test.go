package worker

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// TestOutOfOrderTimesCompleteInOrder: logical times first seen out of
// order across the two inputs of an operator, some of them after earlier
// times were already closed, still get their watermark callbacks once each,
// in ascending order.
func TestOutOfOrderTimesCompleteInOrder(t *testing.T) {
	g := graph.New()
	a := g.AddStream("a", "int")
	b := g.AddStream("b", "int")
	out := g.AddStream("out", "int")
	_ = g.MarkIngest(a)
	_ = g.MarkIngest(b)
	var mu sync.Mutex
	var fired []uint64
	err := g.AddOperator(&operator.Spec{
		Name:          "join",
		Inputs:        []stream.ID{a, b},
		Outputs:       []stream.ID{out},
		AutoWatermark: true,
		OnData:        func(*operator.Context, int, message.Message) {},
		OnWatermark: func(ctx *operator.Context) {
			mu.Lock()
			fired = append(fired, ctx.Timestamp.L)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorker(t, g, Options{})
	inject := func(id stream.ID, m message.Message) {
		t.Helper()
		if err := w.Inject(id, m); err != nil {
			t.Fatal(err)
		}
	}
	inject(a, message.Data(ts(5), 5))
	inject(b, message.Data(ts(2), 2))
	inject(a, message.Data(ts(7), 7))
	inject(b, message.Data(ts(3), 3))
	inject(a, message.Data(ts(2), 2))
	inject(b, message.Watermark(ts(3)))
	inject(a, message.Watermark(ts(7))) // low 3: closes 2, 3
	w.Quiesce()
	inject(b, message.Data(ts(6), 6)) // new times between open ones
	inject(b, message.Data(ts(4), 4))
	inject(b, message.Watermark(ts(6))) // low 6: closes 4, 5, 6
	inject(b, message.Watermark(ts(8))) // low 7: closes 7
	w.Quiesce()
	mu.Lock()
	got := append([]uint64(nil), fired...)
	mu.Unlock()
	if want := []uint64{2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("watermark callbacks ran for %v, want %v", got, want)
	}
	if info, _ := w.Operator("join"); info.PendingTimes != 1 || info.CommittedTimes != 6 {
		t.Fatalf("info = %+v, want time 8 pending and 6 committed", info)
	}
}

// TestRewindOpenThenReplay: rewinding drops the open times' dirty views,
// and a replay of those times rebuilds them from the committed state: no
// input is applied twice, every time commits once, and nothing is left
// pending.
func TestRewindOpenThenReplay(t *testing.T) {
	g := graph.New()
	in := g.AddStream("in", "int")
	_ = g.MarkIngest(in)
	st := state.Typed(&ptrState{}, clonePtr)
	err := g.AddOperator(&operator.Spec{
		Name:          "acc",
		Inputs:        []stream.ID{in},
		AutoWatermark: true,
		NewState:      func() state.Store { return st },
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			s := ctx.State().(*ptrState)
			s.Items = append(s.Items, m.Payload.(int))
		},
		OnWatermark: func(ctx *operator.Context) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorker(t, g, Options{})
	_ = w.Inject(in, message.Data(ts(1), 100))
	_ = w.Inject(in, message.Watermark(ts(1)))
	_ = w.Inject(in, message.Data(ts(2), 200))
	_ = w.Inject(in, message.Data(ts(3), 300))
	w.Quiesce()
	if info, _ := w.Operator("acc"); info.PendingTimes != 2 {
		t.Fatalf("before rewind: %d pending times, want 2", info.PendingTimes)
	}
	w.RewindOpen("acc")
	if info, _ := w.Operator("acc"); info.PendingTimes != 0 || info.CommittedTimes != 1 {
		t.Fatalf("after rewind: info = %+v, want nothing pending and 1 committed", info)
	}
	// One watermark per time: a time's view derives from the state
	// committed before it, so 3 must not start before 2 commits.
	for _, m := range []message.Message{
		message.Data(ts(2), 200),
		message.Watermark(ts(2)),
		message.Data(ts(3), 300),
		message.Watermark(ts(3)),
		message.Data(ts(4), 400),
		message.Watermark(ts(4)),
	} {
		_ = w.Inject(in, m)
	}
	w.Quiesce()
	got, last, _ := st.Last()
	if items := got.(*ptrState).Items; last.L != 4 || !reflect.DeepEqual(items, []int{100, 200, 300, 400}) {
		t.Fatalf("state at %d = %v, want [100 200 300 400] at 4", last.L, items)
	}
	if info, _ := w.Operator("acc"); info.PendingTimes != 0 || info.CommittedTimes != 4 {
		t.Fatalf("after replay: info = %+v, want nothing pending and 4 committed", info)
	}
}

// TestTimeWindowStaysBounded: over 10⁴ timestamps the operator's time
// window and its deadline tracker stay bounded by the history depth.
func TestTimeWindowStaysBounded(t *testing.T) {
	const history = 16
	g := graph.New()
	in := g.AddStream("in", "int")
	out := g.AddStream("out", "int")
	_ = g.MarkIngest(in)
	err := g.AddOperator(&operator.Spec{
		Name:          "op",
		Inputs:        []stream.ID{in},
		Outputs:       []stream.ID{out},
		AutoWatermark: true,
		OnData:        func(*operator.Context, int, message.Message) {},
		Deadlines: []operator.TimestampDeadlineSpec{{
			Output: operator.AllOutputs,
			Value:  deadline.Static(time.Hour),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorker(t, g, Options{HistoryDepth: history, Clock: deadline.NewManual(time.Unix(0, 0))})
	rt := w.ops["op"]
	for l := uint64(1); l <= 10_000; l++ {
		_ = w.Inject(in, message.Data(ts(l), int(l)))
		_ = w.Inject(in, message.Watermark(ts(l)))
		if l%500 != 0 {
			continue
		}
		w.Quiesce()
		rt.mu.Lock()
		n := rt.times.Len()
		rt.mu.Unlock()
		if n > history+2 {
			t.Fatalf("at t=%d the time window holds %d records", l, n)
		}
		if n := rt.ttTrackers[0].Tracked(); n > history+2 {
			t.Fatalf("at t=%d the deadline tracker holds %d entries", l, n)
		}
	}
	if info, _ := w.Operator("op"); info.CommittedTimes != 10_000 || info.PendingTimes != 0 {
		t.Fatalf("info = %+v", info)
	}
}

// TestHistoryGCTrimsDynamicDeadline: the pDP-fed deadline source of an
// operator is trimmed at the same cut as its state, so it no longer grows
// by one update per frame.
func TestHistoryGCTrimsDynamicDeadline(t *testing.T) {
	const history = 16
	g := graph.New()
	in := g.AddStream("in", "int")
	dl := g.AddStream("deadlines", "time.Duration")
	out := g.AddStream("out", "int")
	_ = g.MarkIngest(in)
	_ = g.MarkIngest(dl)
	dyn := deadline.NewDynamic(time.Hour)
	if err := g.AddDeadlineFeed(dl, dyn); err != nil {
		t.Fatal(err)
	}
	err := g.AddOperator(&operator.Spec{
		Name:          "op",
		Inputs:        []stream.ID{in},
		Outputs:       []stream.ID{out},
		AutoWatermark: true,
		Deadlines: []operator.TimestampDeadlineSpec{{
			Output: operator.AllOutputs,
			Value:  dyn,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorker(t, g, Options{HistoryDepth: history, Clock: deadline.NewManual(time.Unix(0, 0))})
	for l := uint64(1); l <= 2_000; l++ {
		_ = w.Inject(dl, message.Data(ts(l), time.Duration(l)*time.Minute))
		_ = w.Inject(dl, message.Watermark(ts(l)))
		_ = w.Inject(in, message.Watermark(ts(l)))
	}
	w.Quiesce()
	if n := dyn.Len(); n > history+2 {
		t.Fatalf("deadline source retains %d updates after 2000 frames", n)
	}
	if got := dyn.For(ts(2_000)); got != 2_000*time.Minute {
		t.Fatalf("For(2000) = %v after GC", got)
	}
}

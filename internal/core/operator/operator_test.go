package operator

import (
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

type recOutput struct {
	id   stream.ID
	msgs []message.Message
}

func (o *recOutput) Send(m message.Message) error { o.msgs = append(o.msgs, m); return nil }
func (o *recOutput) StreamID() stream.ID          { return o.id }

func TestSpecValidate(t *testing.T) {
	ok := &Spec{Name: "x", Inputs: []stream.ID{1}, Outputs: []stream.ID{2}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
	bad := &Spec{Name: "x", Inputs: []stream.ID{1},
		FrequencyDeadlines: []FrequencyDeadlineSpec{{Input: 2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad frequency input accepted")
	}
	bad2 := &Spec{Name: "x", Outputs: []stream.ID{1},
		Deadlines: []TimestampDeadlineSpec{{Output: 7}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("bad deadline output accepted")
	}
	allOut := &Spec{Name: "x", Outputs: []stream.ID{1},
		Deadlines: []TimestampDeadlineSpec{{Output: AllOutputs}}}
	if err := allOut.Validate(); err != nil {
		t.Fatalf("AllOutputs rejected: %v", err)
	}
}

func TestContextSendAndGating(t *testing.T) {
	out := &recOutput{id: 1}
	gate := NewGate()
	ts := timestamp.New(4)
	ctx := NewContext("op", ts, "state", []Output{out}, 50*time.Millisecond, time.Now(), true, gate, nil)

	if ctx.State().(string) != "state" {
		t.Fatal("state lost")
	}
	if ctx.NumOutputs() != 1 {
		t.Fatal("outputs lost")
	}
	rel, _, ok := ctx.Deadline()
	if !ok || rel != 50*time.Millisecond {
		t.Fatalf("Deadline = %v, %v", rel, ok)
	}
	if err := ctx.Send(0, ts, 42); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SendWatermark(0, ts); err != nil {
		t.Fatal(err)
	}
	if len(out.msgs) != 2 {
		t.Fatalf("sent %d messages", len(out.msgs))
	}
	// Abort gates subsequent sends silently.
	gate.Abort()
	if !ctx.Aborted() {
		t.Fatal("Aborted not visible")
	}
	if err := ctx.Send(0, ts, 43); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SendWatermark(0, ts.Succ()); err != nil {
		t.Fatal(err)
	}
	if len(out.msgs) != 2 {
		t.Fatalf("aborted sends leaked: %d messages", len(out.msgs))
	}
}

func TestContextOutputRangePanics(t *testing.T) {
	ctx := NewContext("op", timestamp.New(0), nil, nil, 0, time.Time{}, false, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range output")
		}
	}()
	_ = ctx.Send(0, timestamp.New(0), 1)
}

func TestHandlerContextSendsBypassGating(t *testing.T) {
	out := &recOutput{id: 9}
	miss := deadline.Miss{Timestamp: timestamp.New(7), Relative: time.Millisecond}
	h := NewHandlerContext("op", miss, "committed", "dirty", []Output{out})
	if h.Committed.(string) != "committed" || h.Dirty.(string) != "dirty" {
		t.Fatalf("views lost: %+v", h)
	}
	if err := h.Send(0, miss.Timestamp, "reactive"); err != nil {
		t.Fatal(err)
	}
	if err := h.SendWatermark(0, miss.Timestamp); err != nil {
		t.Fatal(err)
	}
	if len(out.msgs) != 2 {
		t.Fatalf("handler sends = %d", len(out.msgs))
	}
}

func TestGateIdempotentAndDone(t *testing.T) {
	g := NewGate()
	if g.Aborted() {
		t.Fatal("fresh gate aborted")
	}
	select {
	case <-g.Done():
		t.Fatal("fresh gate done")
	default:
	}
	g.Abort()
	g.Abort() // idempotent
	if !g.Aborted() {
		t.Fatal("abort lost")
	}
	select {
	case <-g.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestNilGateContext(t *testing.T) {
	ctx := NewContext("op", timestamp.New(0), nil, []Output{&recOutput{}}, 0, time.Time{}, false, nil, nil)
	if ctx.Aborted() {
		t.Fatal("nil gate must read as not aborted")
	}
	if err := ctx.Send(0, timestamp.New(0), 1); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/faults"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
	"github.com/erdos-go/erdos/internal/core/worker"
)

func ts(l uint64) timestamp.Timestamp { return timestamp.New(l) }

// buildGraph returns a two-stage pipeline: ingest -> double(w1) ->
// addTen(w2) -> out, exercising a cross-worker stream.
func buildGraph(t *testing.T) (*graph.Graph, stream.ID, stream.ID) {
	t.Helper()
	g := graph.New()
	in := g.AddStream("in", "int")
	mid := g.AddStream("mid", "int")
	out := g.AddStream("out", "int")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	err := g.AddOperator(&operator.Spec{
		Name: "double", Placement: "w1",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{mid},
		AutoWatermark: true,
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			_ = ctx.Send(0, m.Timestamp, m.Payload.(int)*2)
		},
		OnWatermark: func(ctx *operator.Context) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = g.AddOperator(&operator.Spec{
		Name: "addTen", Placement: "w2",
		Inputs: []stream.ID{mid}, Outputs: []stream.ID{out},
		AutoWatermark: true,
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			_ = ctx.Send(0, m.Timestamp, m.Payload.(int)+10)
		},
		OnWatermark: func(ctx *operator.Context) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, in, out
}

func TestPlacementRespectsPinsAndRoundRobins(t *testing.T) {
	g := graph.New()
	s := g.AddStream("s", "int")
	_ = g.MarkIngest(s)
	_ = g.AddOperator(&operator.Spec{Name: "pinned", Placement: "w2", Inputs: []stream.ID{s}})
	_ = g.AddOperator(&operator.Spec{Name: "free1", Inputs: []stream.ID{s}})
	_ = g.AddOperator(&operator.Spec{Name: "free2", Inputs: []stream.ID{s}})
	assign, err := Placement(g, []string{"w1", "w2"})
	if err != nil {
		t.Fatal(err)
	}
	if assign["pinned"] != "w2" {
		t.Fatalf("pinned operator placed on %q", assign["pinned"])
	}
	if assign["free1"] == assign["free2"] {
		t.Fatalf("round-robin placed both free operators on %q", assign["free1"])
	}

	_ = g.AddOperator(&operator.Spec{Name: "bad", Placement: "nope", Inputs: []stream.ID{s}})
	if _, err := Placement(g, []string{"w1", "w2"}); err == nil {
		t.Fatal("unknown pinned worker must error")
	}
}

func TestRoutesCrossWorkerOnly(t *testing.T) {
	g, in, out := buildGraph(t)
	assign := map[string]string{"double": "w1", "addTen": "w2"}
	routes := Routes(g, assign, []string{"w1", "w2"},
		map[stream.ID]string{in: "w1"},
		map[stream.ID][]string{out: {"w1"}})
	// Expect: mid w1->w2, out w2->w1 (for extraction). in stays local.
	if len(routes) != 2 {
		t.Fatalf("routes = %+v, want 2 cross-worker routes", routes)
	}
	byStream := map[uint64]Route{}
	for _, r := range routes {
		byStream[r.Stream] = r
	}
	if r := byStream[uint64(out)]; r.Producer != "w2" || len(r.Consumers) != 1 || r.Consumers[0] != "w1" {
		t.Fatalf("out route = %+v", r)
	}
}

func TestTwoWorkerClusterEndToEnd(t *testing.T) {
	g, in, out := buildGraph(t)
	ingestAt := map[stream.ID]string{in: "w1"}
	extractAt := map[stream.ID][]string{out: {"w1"}}
	l, err := NewLeader("127.0.0.1:0", []string{"w1", "w2"}, g, ingestAt, extractAt)
	if err != nil {
		t.Fatal(err)
	}

	var nodes [2]*Node
	var wg sync.WaitGroup
	var errs [2]error
	for i, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{})
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	defer nodes[0].Close()
	defer nodes[1].Close()
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}

	// Collect results on w1 (the out stream is routed back for extraction).
	var mu sync.Mutex
	var results []int
	var wms int
	if err := nodes[0].Worker.Subscribe(out, func(m message.Message) {
		mu.Lock()
		defer mu.Unlock()
		if m.IsData() {
			results = append(results, m.Payload.(int))
		} else {
			wms++
		}
	}); err != nil {
		t.Fatal(err)
	}

	for l := uint64(1); l <= 5; l++ {
		if err := nodes[0].Worker.Inject(in, message.Data(ts(l), int(l))); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n, w := len(results), wms
		mu.Unlock()
		if n == 5 && w == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d results, %d watermarks; want 5 and 5", n, w)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range results {
		want := (i+1)*2 + 10
		if v != want {
			t.Fatalf("result[%d] = %d, want %d", i, v, want)
		}
	}
	if nodes[0].Forwarded() == 0 || nodes[1].Forwarded() == 0 {
		t.Fatalf("expected cross-worker forwarding on both nodes: %d, %d",
			nodes[0].Forwarded(), nodes[1].Forwarded())
	}
}

func TestThreeWorkerFanout(t *testing.T) {
	g := graph.New()
	in := g.AddStream("in", "[]byte")
	_ = g.MarkIngest(in)
	outs := make([]stream.ID, 3)
	for i, name := range []string{"p0", "p1", "p2"} {
		outs[i] = g.AddStream("out-"+name, "int")
		err := g.AddOperator(&operator.Spec{
			Name: name, Placement: []string{"w1", "w2", "w3"}[i],
			Inputs: []stream.ID{in}, Outputs: []stream.ID{outs[i]},
			AutoWatermark: true,
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				_ = ctx.Send(0, m.Timestamp, len(m.Payload.([]byte)))
			},
			OnWatermark: func(ctx *operator.Context) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"w1", "w2", "w3"}
	extractAt := map[stream.ID][]string{}
	for _, o := range outs {
		extractAt[o] = []string{"w1"}
	}
	l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, extractAt)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{})
		}(i, name)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		defer nodes[i].Close()
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 3)
	for _, o := range outs {
		if err := nodes[0].Worker.Subscribe(o, func(m message.Message) {
			if m.IsData() {
				got <- m.Payload.(int)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 4096)
	_ = nodes[0].Worker.Inject(in, message.Data(ts(1), payload))
	_ = nodes[0].Worker.Inject(in, message.Watermark(ts(1)))
	for i := 0; i < 3; i++ {
		select {
		case v := <-got:
			if v != 4096 {
				t.Fatalf("broadcast result = %d", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("fanout result %d never arrived", i)
		}
	}
}

// TestForwardCountsUnreachedConsumer severs the producer's data link to
// its one consumer and keeps injecting. Link repair waits for a heartbeat
// tick, which here never comes, so the forwards into the severed link
// reach no one; the producer must count them rather than drop them in
// silence, and its congestion report must carry the count.
func TestForwardCountsUnreachedConsumer(t *testing.T) {
	g, in, _ := buildGraph(t)
	l, err := NewLeader("127.0.0.1:0", []string{"w1", "w2"}, g,
		map[stream.ID]string{in: "w1"}, nil, WithHeartbeat(time.Hour, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	inj := faults.NewInjector(faults.NewSchedule(1).Sever(0, "w1", "w2"))
	defer inj.Stop()
	var nodes [2]*Node
	var errs [2]error
	var wg sync.WaitGroup
	for i, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{},
				WithCommOptions(comm.WithConnHook(inj.Hook(name))))
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		defer nodes[i].Close()
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	w1 := nodes[0]
	if n := w1.Unreached(); n != 0 {
		t.Fatalf("%d unreached consumers before the sever", n)
	}
	inj.Arm()
	deadline := time.Now().Add(5 * time.Second)
	for i := uint64(1); w1.Unreached() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("forwards into the severed link were never counted")
		}
		if err := w1.Worker.Inject(in, message.Data(ts(i), int(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if r := w1.congestionReport(); r.Unreached == 0 {
		t.Fatalf("congestion report hides the unreached consumer: %+v", r)
	}
}

package cluster

import (
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// buildFanGraph is a fanout pipeline across three workers: src(w1)
// produces "fan", consumed by left(w2) and right(w3), whose outputs are
// extracted on w1. The fan payload is padded to fanPayloadBytes so the
// broadcast ring carries real volume.
const fanPayloadBytes = 2048

func buildFanGraph(t *testing.T) (g *graph.Graph, in, outL, outR stream.ID) {
	t.Helper()
	g = graph.New()
	in = g.AddStream("in", "bytes")
	fan := g.AddStream("fan", "bytes")
	outL = g.AddStream("outL", "bytes")
	outR = g.AddStream("outR", "bytes")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOperator(&operator.Spec{
		Name: "src", Placement: "w1",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{fan},
		AutoWatermark: true,
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			p := make([]byte, fanPayloadBytes)
			p[0] = m.Payload.([]byte)[0]
			_ = ctx.Send(0, m.Timestamp, p)
		},
		OnWatermark: func(ctx *operator.Context) {},
	}); err != nil {
		t.Fatal(err)
	}
	stage := func(name, placement string, out stream.ID, f func(byte) byte) {
		if err := g.AddOperator(&operator.Spec{
			Name: name, Placement: placement,
			Inputs: []stream.ID{fan}, Outputs: []stream.ID{out},
			AutoWatermark: true,
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				_ = ctx.Send(0, m.Timestamp, []byte{f(m.Payload.([]byte)[0])})
			},
			OnWatermark: func(ctx *operator.Context) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stage("left", "w2", outL, func(v byte) byte { return v * 2 })
	stage("right", "w3", outR, func(v byte) byte { return v + 1 })
	return g, in, outL, outR
}

// TestBroadcastRingClusterFanout runs a same-host cluster whose fanout
// edge rides the producer's SPMC broadcast ring, then drives the two
// degradation paths: a lagging reader is evicted so the ring never stalls
// the producer, and a consumer that detaches falls back to its pairwise
// link — with every message delivered exactly once throughout.
func TestBroadcastRingClusterFanout(t *testing.T) {
	g, in, outL, outR := buildFanGraph(t)
	ingestAt := map[stream.ID]string{in: "w1"}
	extractAt := map[stream.ID][]string{outL: {"w1"}, outR: {"w1"}}
	l, err := NewLeader("127.0.0.1:0", []string{"w1", "w2", "w3"}, g, ingestAt, extractAt)
	if err != nil {
		t.Fatal(err)
	}

	var nodes [3]*Node
	var wg sync.WaitGroup
	var errs [3]error
	for i, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{},
				WithHostLocality("hostA", t.TempDir()))
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	for _, n := range nodes {
		defer n.Close()
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].bgroup == nil {
		t.Fatal("w1 has no broadcast group despite host locality")
	}
	// Evict a reader that pins the ring for 50ms instead of the default
	// 200ms, keeping the chaos phase quick. Set before any fanout flows.
	nodes[0].bgroup.EvictAfter = 50 * time.Millisecond

	// The fan stream's route must be marked broadcast-eligible, and both
	// consumers must already sit on w1's ring (membership is established
	// during Join, before forwarding starts).
	var fanRoute *Route
	sched := nodes[0].Schedule()
	for i := range sched.Routes {
		if len(sched.Routes[i].Consumers) == 2 {
			fanRoute = &sched.Routes[i]
		}
	}
	if fanRoute == nil || !fanRoute.Broadcast {
		t.Fatalf("fan route not broadcast-eligible: %+v", sched.Routes)
	}
	members := nodes[0].bgroup.MemberSet()
	if !members["w2"] || !members["w3"] {
		t.Fatalf("ring members = %v, want w2 and w3", members)
	}

	var mu sync.Mutex
	countL := make(map[uint64]int)
	countR := make(map[uint64]int)
	subscribe := func(id stream.ID, counts map[uint64]int) {
		if err := nodes[0].Worker.Subscribe(id, func(m message.Message) {
			if m.IsData() {
				mu.Lock()
				counts[m.Timestamp.L]++
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	subscribe(outL, countL)
	subscribe(outR, countR)

	inject := func(from, to uint64) {
		for l := from; l <= to; l++ {
			if err := nodes[0].Worker.Inject(in, message.Data(ts(l), []byte{byte(l)})); err != nil {
				t.Fatal(err)
			}
			if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
				t.Fatal(err)
			}
		}
	}
	await := func(want int) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			mu.Lock()
			kl, kr := len(countL), len(countR)
			mu.Unlock()
			if kl >= want && kr >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("got %d/%d results, want %d", kl, kr, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: the happy path — fanout rides the ring. Enough volume to
	// lap it, and a writer that parks without spinning evicts no reader
	// that keeps up.
	const lap = 620 // ~1.2MB of fan payload through a 1MB ring
	inject(1, lap)
	await(lap)
	if frames, _ := nodes[0].bus.Stats(); frames == 0 {
		t.Fatal("fanout ran but the broadcast ring carried no frames")
	}
	if ev := nodes[0].congestionReport().RelayRingEvictions; ev != 0 {
		t.Fatalf("%d broadcast-ring evictions in steady state, want 0", ev)
	}

	// Phase 2: a lagging reader attaches and never reads. Another lap
	// must get it evicted rather than stall the cluster, while the real
	// consumers keep receiving everything.
	lagger, err := shm.JoinBroadcast(nodes[0].bgroup.Addr(), "lagger")
	if err != nil {
		t.Fatal(err)
	}
	defer lagger.Close()
	const fill = 2 * lap
	inject(lap+1, fill)
	await(fill)
	if ev := nodes[0].congestionReport().RelayRingEvictions; ev == 0 {
		t.Fatal("lagging reader was never evicted")
	}
	if m := nodes[0].bgroup.MemberSet(); m["lagger"] {
		t.Fatalf("evicted reader still a member: %v", m)
	}

	// Phase 3: w2 detaches from the ring; once the producer notices, its
	// fanout must fall back to w2's pairwise link with no loss.
	nodes[1].mu.Lock()
	sub := nodes[1].busIn["w1"]
	nodes[1].mu.Unlock()
	if sub == nil {
		t.Fatal("w2 has no ring subscription on w1")
	}
	sub.close()
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].bgroup.MemberSet()["w2"] {
		if time.Now().After(deadline) {
			t.Fatal("producer never noticed the detached reader")
		}
		time.Sleep(time.Millisecond)
	}
	inject(fill+1, fill+20)
	await(fill + 20)

	// Exactly-once end to end, across ring, eviction, and fallback.
	mu.Lock()
	defer mu.Unlock()
	for l := uint64(1); l <= fill+20; l++ {
		if countL[l] != 1 || countR[l] != 1 {
			t.Fatalf("timestamp %d delivered L=%d R=%d times, want exactly once",
				l, countL[l], countR[l])
		}
	}
	// And the whole data plane stayed gob-free.
	for i, name := range []string{"w1", "w2", "w3"} {
		s, r := nodes[i].Transport.SentFrames(), nodes[i].Transport.ReceivedFrames()
		if s.Gob != 0 || r.Gob != 0 {
			t.Fatalf("%s: gob data-plane frames: sent %+v recv %+v", name, s, r)
		}
	}
}

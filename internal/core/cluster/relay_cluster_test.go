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
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// buildRelayGraph is a cross-host fanout pipeline: src on w1 echoes each
// ingested payload onto "fan" (size preserved, so the test controls the
// wire frame size), one stage per stageWorker consumes fan and reports the
// received payload length on its own output, extracted on w1.
func buildRelayGraph(t *testing.T, stageWorkers []string) (g *graph.Graph, in stream.ID, outs map[string]stream.ID) {
	t.Helper()
	g = graph.New()
	in = g.AddStream("in", "bytes")
	fan := g.AddStream("fan", "bytes")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOperator(&operator.Spec{
		Name: "src", Placement: "w1",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{fan},
		AutoWatermark: true,
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			b := m.Payload.([]byte)
			p := make([]byte, len(b))
			p[0] = b[0]
			_ = ctx.Send(0, m.Timestamp, p)
		},
		OnWatermark: func(ctx *operator.Context) {},
	}); err != nil {
		t.Fatal(err)
	}
	outs = make(map[string]stream.ID, len(stageWorkers))
	for _, w := range stageWorkers {
		out := g.AddStream("out-"+w, "int")
		outs[w] = out
		if err := g.AddOperator(&operator.Spec{
			Name: "stage-" + w, Placement: w,
			Inputs: []stream.ID{fan}, Outputs: []stream.ID{out},
			AutoWatermark: true,
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				_ = ctx.Send(0, m.Timestamp, len(m.Payload.([]byte)))
			},
			OnWatermark: func(ctx *operator.Context) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g, in, outs
}

// TestRelayMulticastCluster is the tentpole's counter-asserted test: a
// fanout to four consumers spread over two remote hosts costs the
// producer exactly one wire frame per remote host (the tagRelay envelope
// to each elected relay) and zero frames on the covered consumers' own
// links; every consumer still receives every message exactly once. A
// second phase ships a frame bigger than 4x the relay's broadcast ring
// and asserts it streams through the relay as a chunked ring train
// instead of falling back to per-consumer pairwise links.
func TestRelayMulticastCluster(t *testing.T) {
	stageWorkers := []string{"w2", "w3", "w4", "w5"}
	g, in, outs := buildRelayGraph(t, stageWorkers)
	hosts := map[string]string{"w1": "hostA", "w2": "hostB", "w3": "hostB", "w4": "hostC", "w5": "hostC"}

	extractAt := make(map[stream.ID][]string, len(outs))
	for _, id := range outs {
		extractAt[id] = []string{"w1"}
	}
	names := []string{"w1", "w2", "w3", "w4", "w5"}
	l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, extractAt)
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*Node, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{},
				WithHostLocality(hosts[name], t.TempDir()))
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

	// The schedule elected one relay per remote host for the fan stream —
	// the lexicographically-first consumer on each host, since no
	// congestion reports have arrived yet.
	sched := nodes[0].Schedule()
	var fanStream uint64
	for _, r := range sched.Routes {
		if len(r.Consumers) == 4 {
			fanStream = r.Stream
		}
	}
	if fanStream == 0 {
		t.Fatalf("no fanout route in %+v", sched.Routes)
	}
	relays := sched.PeerRelay[fanStream]
	if relays["hostB"] != "w2" || relays["hostC"] != "w4" {
		t.Fatalf("PeerRelay = %v, want hostB->w2 hostC->w4", relays)
	}
	if !nodes[0].Transport.RelayCapable("w2") || !nodes[0].Transport.RelayCapable("w4") {
		t.Fatal("relay capability not negotiated in the data-plane handshake")
	}

	var mu sync.Mutex
	lengths := make(map[string]map[uint64]int)
	delivered := make(map[string]map[uint64]int)
	for _, w := range stageWorkers {
		w := w
		lengths[w] = make(map[uint64]int)
		delivered[w] = make(map[uint64]int)
		if err := nodes[0].Worker.Subscribe(outs[w], func(m message.Message) {
			if m.IsData() {
				mu.Lock()
				lengths[w][m.Timestamp.L] = m.Payload.(int)
				delivered[w][m.Timestamp.L]++
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	inject := func(l uint64, size int) {
		p := make([]byte, size)
		p[0] = byte(l)
		if err := nodes[0].Worker.Inject(in, message.Data(ts(l), p)); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
			t.Fatal(err)
		}
	}
	await := func(want int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			done := true
			for _, w := range stageWorkers {
				if len(lengths[w]) < want {
					done = false
				}
			}
			mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("timed out: got %d/%d/%d/%d results, want %d",
					len(lengths["w2"]), len(lengths["w3"]), len(lengths["w4"]), len(lengths["w5"]), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: steady fanout of 2KB frames.
	const phase1 = 30
	for l := uint64(1); l <= phase1; l++ {
		inject(l, 2048)
	}
	await(phase1)

	st := nodes[0].Transport.PeerCoalesceStats()
	// Covered consumers got nothing on their direct links: the fanout's
	// cross-host wire cost is per host, not per consumer.
	for _, cover := range []string{"w3", "w5"} {
		if f := st[cover].Frames; f != 0 {
			t.Fatalf("producer shipped %d frames directly to covered consumer %s, want 0", f, cover)
		}
	}
	// Exactly one envelope per remote host per multicast: both relay links
	// carried the same envelope count, and together they account for every
	// relayed send the producer made.
	if st["w2"].RelayFrames == 0 || st["w2"].RelayFrames != st["w4"].RelayFrames {
		t.Fatalf("relay envelope counts diverge: w2=%d w4=%d", st["w2"].RelayFrames, st["w4"].RelayFrames)
	}
	if sent, _, _ := nodes[0].Transport.RelayStats(); sent != st["w2"].RelayFrames+st["w4"].RelayFrames {
		t.Fatalf("relaySent=%d but link counters sum to %d", sent, st["w2"].RelayFrames+st["w4"].RelayFrames)
	}
	// The relays actually republished (and their rings carried frames).
	if _, recv, repub := nodes[1].Transport.RelayStats(); recv == 0 || repub == 0 {
		t.Fatalf("w2 relay stats: received=%d republished=%d, want both > 0", recv, repub)
	}
	if frames, _ := nodes[1].bus.Stats(); frames == 0 {
		t.Fatal("relay republish never rode w2's broadcast ring")
	}

	// Phase 2: a frame beyond 4x the relay's ring must stream through the
	// relay as a chunked train — one producer-side wire copy per host,
	// still no pairwise fallback to the covered consumers.
	const oversize = 5 << 20 // default ring is 1MB; the bus caps at 4MB
	inject(phase1+1, oversize)
	await(phase1 + 1)

	mu.Lock()
	for _, w := range stageWorkers {
		if got := lengths[w][phase1+1]; got != oversize {
			mu.Unlock()
			t.Fatalf("%s received %d bytes of the oversize frame, want %d", w, got, oversize)
		}
		for l := uint64(1); l <= phase1+1; l++ {
			if delivered[w][l] != 1 {
				mu.Unlock()
				t.Fatalf("%s saw timestamp %d %d times, want exactly once", w, l, delivered[w][l])
			}
		}
	}
	mu.Unlock()

	st = nodes[0].Transport.PeerCoalesceStats()
	for _, cover := range []string{"w3", "w5"} {
		if f := st[cover].Frames; f != 0 {
			t.Fatalf("oversize frame fell back to pairwise: %d frames on the %s link", st[cover].Frames, cover)
		}
	}
	spilled := false
	for _, i := range []int{1, 3} { // w2, w4
		if nodes[i].bgroup.Spills() > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Fatal("oversize frame never streamed through a relay ring as a chunked train")
	}
	// Relay pressure is visible to placement: the congestion report carries
	// the republish count and ring spills.
	if r := nodes[1].congestionReport(); r.RelayRepublished == 0 {
		t.Fatalf("congestion report hides relay pressure: %+v", r)
	}
}

// relaySum mirrors failover_test's countState for the relay chaos test.
type relaySum struct{ Sum int }

func init() { state.RegisterState(&relaySum{}) }

// buildRelayFailoverGraph fans src(w1)'s stream out to one stateful
// counter per stage worker; each counter's running sum is recorded by a
// fenced sink operator on w1 (exactly-once at watermark granularity), so
// the ledger catches both lost and duplicated deliveries across the
// relay's death.
func buildRelayFailoverGraph(t *testing.T, stageWorkers []string, record func(w string, l uint64, sum int)) (*graph.Graph, stream.ID) {
	t.Helper()
	g := graph.New()
	in := g.AddStream("in", "bytes")
	fan := g.AddStream("fan", "bytes")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOperator(&operator.Spec{
		Name: "src", Placement: "w1",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{fan},
		AutoWatermark: true,
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			b := m.Payload.([]byte)
			p := make([]byte, fanPayloadBytes)
			p[0] = b[0]
			_ = ctx.Send(0, m.Timestamp, p)
		},
		OnWatermark: func(ctx *operator.Context) {},
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range stageWorkers {
		w := w
		mid := g.AddStream("mid-"+w, "int")
		if err := g.AddOperator(&operator.Spec{
			Name: "count-" + w, Placement: w,
			Inputs: []stream.ID{fan}, Outputs: []stream.ID{mid},
			AutoWatermark: true,
			NewState: func() state.Store {
				return state.NewVersioned(&relaySum{}, func(v any) any {
					c := *v.(*relaySum)
					return &c
				})
			},
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				ctx.State().(*relaySum).Sum += int(m.Payload.([]byte)[0])
			},
			OnWatermark: func(ctx *operator.Context) {
				_ = ctx.Send(0, ctx.Timestamp, ctx.State().(*relaySum).Sum)
			},
		}); err != nil {
			t.Fatal(err)
		}
		type sinkState struct{ Last int }
		if err := g.AddOperator(&operator.Spec{
			Name: "sink-" + w, Placement: "w1",
			Inputs:        []stream.ID{mid},
			AutoWatermark: true,
			NewState: func() state.Store {
				return state.NewVersioned(&sinkState{}, func(v any) any {
					c := *v.(*sinkState)
					return &c
				})
			},
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				ctx.State().(*sinkState).Last = m.Payload.(int)
			},
			OnWatermark: func(ctx *operator.Context) {
				record(w, ctx.Timestamp.L, ctx.State().(*sinkState).Last)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g, in
}

// TestRelayFailoverMidFanout kills the elected relay while the fanout is
// live: the leader must detect the death, re-elect a relay on the same
// host in the reschedule delta, force-replay the retained window to the
// consumers the dead relay covered, and keep every stage's running sum
// exactly-once — frames that died in the relay's republish queue are
// recovered, recovered frames that raced the live path are fenced off.
// The real-time detection bound lives in the chaos-tagged twin.
func TestRelayFailoverMidFanout(t *testing.T) {
	relayFailover(t, nil, nil)
}

// TestRelayFailoverReplayHeld holds every write on the producer's direct
// link to the covered consumer w4 for 50ms. The forced replay must ride
// the new relay, the path the live frames after it take; a window sent
// over the held pairwise link lands behind those frames, and w4's fence
// drops it as stale — a silent gap in w4's ledger.
func TestRelayFailoverReplayHeld(t *testing.T) {
	inj := faults.NewInjector(faults.NewSchedule(1).Delay(0, "w1", "w4", 50*time.Millisecond))
	defer inj.Stop()
	relayFailover(t, func(name string) []JoinOption {
		if name == "w1" {
			return []JoinOption{WithCommOptions(comm.WithConnHook(inj.Hook(name)))}
		}
		return nil
	}, inj.Arm)
}

// relayFailover runs the relay-failover scenario and audits its ledgers:
// src on w1 (hostA) fans out to one counter per hostB worker through the
// elected relay w2; phase 1 flows through the relay, phase 2 kills it and
// injects into the outage, phase 3 flows through the re-elected relay.
// jopts adds per-worker join options and beforeKill runs just before the
// relay dies (either may be nil). It returns the leader and the kill
// instant.
func relayFailover(t *testing.T, jopts func(name string) []JoinOption, beforeKill func()) (*Leader, time.Time) {
	t.Helper()
	const hb = 100 * time.Millisecond
	stageWorkers := []string{"w2", "w3", "w4"}
	hosts := map[string]string{"w1": "hostA", "w2": "hostB", "w3": "hostB", "w4": "hostB"}

	sums := make(map[string]*ledger)
	for _, w := range stageWorkers {
		sums[w] = newLedger()
	}
	g, in := buildRelayFailoverGraph(t, stageWorkers, func(w string, l uint64, sum int) {
		sums[w].record(l, sum)
	})

	names := []string{"w1", "w2", "w3", "w4"}
	l, err := NewLeader("127.0.0.1:0", names, g,
		map[stream.ID]string{in: "w1"}, nil,
		WithHeartbeat(hb, 3*hb/2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)

	nodes := make([]*Node, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		opts := []JoinOption{WithHostLocality(hosts[name], t.TempDir())}
		if jopts != nil {
			opts = append(opts, jopts(name)...)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{}, opts...)
		}(i, name)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		t.Cleanup(nodes[i].Close)
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}

	var fanStream uint64
	for _, r := range nodes[0].Schedule().Routes {
		if len(r.Consumers) == 3 {
			fanStream = r.Stream
		}
	}
	if got := nodes[0].Schedule().PeerRelay[fanStream]["hostB"]; got != "w2" {
		t.Fatalf("initial relay = %q, want w2", got)
	}

	inject := func(from, to uint64) {
		for l := from; l <= to; l++ {
			if err := nodes[0].Worker.Inject(in, message.Data(ts(l), []byte{byte(l%251) + 1})); err != nil {
				t.Fatal(err)
			}
			if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
				t.Fatal(err)
			}
		}
	}
	awaitAll := func(l uint64) {
		for _, w := range stageWorkers {
			sums[w].await(l)
		}
	}

	// Phase 1: steady state through the relay, then let heartbeats ship
	// the counters' checkpoints and frontiers.
	inject(1, 20)
	awaitAll(20)
	time.Sleep(2 * hb)

	// Phase 2: kill the relay mid-fanout and keep injecting into the
	// outage — some of these frames die in w2's republish queue, and only
	// the forced replay at the barrier can recover them for w3/w4.
	if beforeKill != nil {
		beforeKill()
	}
	killed := time.Now()
	nodes[1].Kill()
	inject(21, 30)
	waitForEvent(t, l, EventRecovered, "w2")

	// The reschedule delta re-elected a surviving relay on hostB.
	sched := nodes[2].Schedule()
	if got := sched.PeerRelay[fanStream]["hostB"]; got == "" || got == "w2" {
		t.Fatalf("relay not re-elected away from the dead worker: %q (PeerRelay=%v)", got, sched.PeerRelay)
	}

	// Phase 3: post-recovery traffic through the new relay, then audit the
	// ledger: every timestamp recorded exactly once per stage, every sum
	// exact — nothing lost in the dead relay's queue, nothing double-applied
	// by the forced replay.
	inject(31, 40)
	awaitAll(40)

	want := 0
	for l := uint64(1); l <= 40; l++ {
		want += int(byte(l%251)) + 1
		for _, w := range stageWorkers {
			sums[w].mu.Lock()
			got := sums[w].sums[l]
			sums[w].mu.Unlock()
			if len(got) != 1 {
				t.Fatalf("stage %s timestamp %d recorded %d times (%v), want exactly once", w, l, len(got), got)
			}
			if got[0] != want {
				t.Fatalf("stage %s sum at %d = %d, want %d", w, l, got[0], want)
			}
		}
	}
	return l, killed
}

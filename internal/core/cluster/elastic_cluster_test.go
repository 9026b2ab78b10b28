package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// startElastic boots a resident leader plus the named workers on the
// failover test graph and returns everything the elastic tests reuse.
func startElastic(t *testing.T, names []string, hb time.Duration, record func(l uint64, sum int), opts ...LeaderOption) (*Leader, []*Node, stream.ID) {
	t.Helper()
	g, in := buildFailoverGraph(t, record)
	opts = append([]LeaderOption{WithHeartbeat(hb, 3*hb/2)}, opts...)
	l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	nodes := make([]*Node, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
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
		i := i
		t.Cleanup(nodes[i].Close)
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	return l, nodes, in
}

// waitForEvent blocks until the leader logs an event of kind about worker
// ("" matches any worker) and returns it. It has no deadline of its own: an
// event that never comes hangs until -timeout.
func waitForEvent(t *testing.T, l *Leader, kind EventKind, worker string) Event {
	t.Helper()
	for {
		for _, e := range l.Events() {
			if e.Kind == kind && (worker == "" || e.Worker == worker) {
				return e
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// hasEvent reports whether the leader's log already holds an event of kind.
func hasEvent(l *Leader, kind EventKind) bool {
	for _, e := range l.Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// ledger is a sink's record of (timestamp, sum) observations. A wait
// blocks on a channel the sink closes when the awaited timestamp lands —
// sinks record in timestamp order, so every earlier timestamp that will
// ever be recorded already is — and a loss hangs until -timeout instead of
// racing a wall-clock bound.
type ledger struct {
	mu    sync.Mutex
	sums  map[uint64][]int
	waits map[uint64]chan struct{}
}

func newLedger() *ledger {
	return &ledger{sums: make(map[uint64][]int), waits: make(map[uint64]chan struct{})}
}

func (g *ledger) record(l uint64, sum int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sums[l] = append(g.sums[l], sum)
	if ch, ok := g.waits[l]; ok {
		close(ch)
		delete(g.waits, l)
	}
}

// await blocks until timestamp l is recorded.
func (g *ledger) await(l uint64) {
	g.mu.Lock()
	if len(g.sums[l]) > 0 {
		g.mu.Unlock()
		return
	}
	ch, ok := g.waits[l]
	if !ok {
		ch = make(chan struct{})
		g.waits[l] = ch
	}
	g.mu.Unlock()
	<-ch
}

// injector returns a function that injects timestamps from..to into in on
// n, each as one unit of data and its watermark.
func injector(t *testing.T, n *Node, in stream.ID) func(from, to uint64) {
	return func(from, to uint64) {
		for l := from; l <= to; l++ {
			if err := n.Worker.Inject(in, message.Data(ts(l), 1)); err != nil {
				t.Error(err)
				return
			}
			if err := n.Worker.Inject(in, message.Watermark(ts(l))); err != nil {
				t.Error(err)
				return
			}
		}
	}
}

// checkExactlyOnce asserts every timestamp 1..upTo was recorded exactly
// once with the running sum of the unit payloads.
func checkExactlyOnce(t *testing.T, g *ledger, upTo uint64) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	for l := uint64(1); l <= upTo; l++ {
		got := g.sums[l]
		if len(got) != 1 {
			t.Fatalf("timestamp %d observed %d times (%v), want exactly once", l, len(got), got)
		}
		if got[0] != int(l) {
			t.Fatalf("sum at %d = %d, want %d", l, got[0], l)
		}
	}
}

// TestGracefulJoinAndMigrate admits a third worker into a running
// two-worker cluster mid-stream, migrates the stateful operator onto it
// live, and asserts the ledger stays exactly-once: the donor's freeze-time
// checkpoint restores on the joiner, the producer's retained window
// replays past the cut, and the downstream fence drops regenerated
// duplicates. Migrate returns only once its barrier is released, so the
// migrated event is already logged when it does.
func TestGracefulJoinAndMigrate(t *testing.T) {
	const hb = 100 * time.Millisecond
	sums := newLedger()
	l, nodes, in := startElastic(t, []string{"w1", "w2"}, hb, sums.record)
	inject := injector(t, nodes[0], in)

	inject(1, 8)
	sums.await(8)

	// Runtime join: the late worker dials the same control address the
	// static workers did and is admitted without disturbing the stream.
	n3, err := Join(l.Addr(), "w3", g3(t, nodes[0]), worker.Options{})
	if err != nil {
		t.Fatalf("runtime join: %v", err)
	}
	defer n3.Close()
	// The existing workers wait (up to FailAfter) for their dials to the
	// joiner before acking its delta, and the leader starts a joiner only
	// after those acks.
	for _, n := range nodes {
		if _, ok := n.Transport.PeerSchemes()["w3"]; !ok {
			t.Fatalf("%s has no link to w3 when w3's Join returns", n.Name)
		}
	}
	waitForEvent(t, l, EventJoined, "w3")
	if got := l.Members(); len(got) != 3 || got[2] != "w3" {
		t.Fatalf("members after join = %v, want [w1 w2 w3]", got)
	}

	// Live migration concurrent with traffic.
	done := make(chan struct{})
	go func() {
		defer close(done)
		inject(9, 20)
	}()
	if err := l.Migrate("w2", []string{"count"}, "w3"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	<-done
	if !hasEvent(l, EventMigrated) {
		t.Fatalf("Migrate returned before its barrier: events %+v", l.Events())
	}

	if !n3.Worker.Has("count") {
		t.Fatal("w3 did not adopt count after migration")
	}
	if got := n3.Schedule().Assignments["count"]; got != "w3" {
		t.Fatalf("count assigned to %q after migration, want w3", got)
	}
	// The donor applied the same epoch (it must retarget forwarding) and
	// no longer runs the operator.
	if nodes[1].Worker.Has("count") {
		t.Fatal("donor w2 still runs count after migration")
	}

	inject(21, 25)
	sums.await(25)
	checkExactlyOnce(t, sums, 25)
}

// g3 returns the same graph the cluster was built over: joiners must be
// constructed over an identical base graph (same stream IDs), which
// in-process means the same *graph.Graph.
func g3(t *testing.T, n *Node) *graph.Graph {
	t.Helper()
	g, ok := n.Worker.View().(*graph.Multi)
	if !ok {
		t.Fatalf("worker view is %T, want *graph.Multi", n.Worker.View())
	}
	return g.Parts()[0]
}

// TestDrainExactlyOnce gracefully drains the worker running the stateful
// operator while traffic flows and asserts the handoff contract: the
// drain freezes the operator at a consistent point, re-places it, the
// ledger stays exactly-once, the donor learns it may exit (Drained
// closes), and the leader never declares the donor dead.
func TestDrainExactlyOnce(t *testing.T) {
	const hb = 100 * time.Millisecond
	sums := newLedger()
	l, nodes, in := startElastic(t, []string{"w1", "w2", "w3"}, hb, sums.record)
	inject := injector(t, nodes[0], in)
	inject(1, 8)
	sums.await(8)

	// Drain with traffic in flight: messages the frozen operator never saw
	// are re-delivered to the adopter from the producer's retained window.
	done := make(chan struct{})
	go func() {
		defer close(done)
		inject(9, 20)
	}()
	if err := l.Drain("w2"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-done
	if !hasEvent(l, EventDrained) {
		t.Fatalf("Drain returned before its barrier: events %+v", l.Events())
	}
	<-nodes[1].Drained()
	nodes[1].Close()

	if got := l.Members(); len(got) != 2 || got[0] != "w1" || got[1] != "w3" {
		t.Fatalf("members after drain = %v, want [w1 w3]", got)
	}
	if !nodes[2].Worker.Has("count") {
		t.Fatal("w3 did not adopt count after drain")
	}
	for _, e := range l.Events() {
		if e.Kind == EventFailureDetected && e.Worker == "w2" {
			t.Fatalf("drain was treated as a failure: %+v", l.Events())
		}
	}

	inject(21, 25)
	sums.await(25)
	checkExactlyOnce(t, sums, 25)
}

// tenantRecorder builds a tiny two-operator tenant pipeline (src stream ->
// add -> out -> sink) whose sink records observed timestamps from its
// watermark callback (exactly-once by the input fence).
func tenantRecorder(t *testing.T, prefix string, record func(l uint64)) (*graph.Graph, stream.ID) {
	t.Helper()
	g := graph.New()
	in := g.AddStream(prefix+"in", "int")
	out := g.AddStream(prefix+"out", "int")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	err := g.AddOperator(&operator.Spec{
		Name:   prefix + "add",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{out},
		AutoWatermark: true,
		NewState: func() state.Store {
			return state.NewVersioned(&countState{}, func(v any) any {
				c := *v.(*countState)
				return &c
			})
		},
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			ctx.State().(*countState).Sum += m.Payload.(int)
		},
		OnWatermark: func(ctx *operator.Context) {
			_ = ctx.Send(0, ctx.Timestamp, ctx.State().(*countState).Sum)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = g.AddOperator(&operator.Spec{
		Name:          prefix + "sink",
		Inputs:        []stream.ID{out},
		AutoWatermark: true,
		OnWatermark: func(ctx *operator.Context) {
			record(ctx.Timestamp.L)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, in
}

// TestSubmitTenantsAndAdmission exercises multi-tenant admission: a tenant
// is admitted, resolved and extended on every node, runs end to end; a
// duplicate name and an over-capacity tenant are rejected.
func TestSubmitTenantsAndAdmission(t *testing.T) {
	const hb = 100 * time.Millisecond
	g, in := buildFailoverGraph(t, func(uint64, int) {})

	// Tenant graphs are resolved locally per node; in-process the registry
	// shares the *graph.Graph itself.
	var regMu sync.Mutex
	registry := make(map[string]*graph.Graph)
	resolve := func(name string) *graph.Graph {
		regMu.Lock()
		defer regMu.Unlock()
		return registry[name]
	}

	names := []string{"w1", "w2"}
	l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, nil,
		WithHeartbeat(hb, 3*hb/2), WithTenantCapacity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	nodes := make([]*Node, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{},
				WithTenantResolver(resolve))
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

	seen := newLedger()
	tg, tin := tenantRecorder(t, "tA-", func(l uint64) { seen.record(l, 0) })
	regMu.Lock()
	registry["tA"] = tg
	regMu.Unlock()

	if err := l.Submit(Tenant{Name: "tA", Graph: tg, IngestAt: map[stream.ID]string{tin: "w1"}}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := l.Tenants(); len(got) != 1 || got[0] != "tA" {
		t.Fatalf("tenants = %v, want [tA]", got)
	}

	// The tenant pipeline runs end to end through its injected stream.
	for i := uint64(1); i <= 5; i++ {
		if err := nodes[0].Worker.Inject(tin, message.Data(ts(i), 1)); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(tin, message.Watermark(ts(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen.await(5)

	if err := l.Submit(Tenant{Name: "tA", Graph: tg}); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	// Capacity is 3 per worker x 2 workers = 6; tA used 2, so a declared
	// load of 5 must be rejected.
	bg, _ := tenantRecorder(t, "tB-", func(uint64) {})
	err = l.Submit(Tenant{Name: "tB", Graph: bg, Load: 5})
	if err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("over-capacity tenant: got %v, want admission rejection", err)
	}
	if got := l.Tenants(); len(got) != 1 {
		t.Fatalf("tenants after rejection = %v, want [tA]", got)
	}
}

// TestDrainedExcludedFromPlacement drains a worker, then checks both
// placement paths never use it again: a tenant submitted afterwards lands
// elsewhere, and a subsequent failover re-places orphans only onto live
// members — the drained worker appears in no assignment and no route.
func TestDrainedExcludedFromPlacement(t *testing.T) {
	const hb = 100 * time.Millisecond
	l, nodes, _ := startElastic(t, []string{"w1", "w2", "w3"}, hb, func(uint64, int) {})
	// w3 is idle (count on w2, sink on w1): drain it first.
	if err := l.Drain("w3"); err != nil {
		t.Fatalf("drain w3: %v", err)
	}
	nodes[2].Close()

	// A tenant submitted now must not touch the drained worker. The nodes
	// have no resolver, so only placement is being asserted — operators
	// land on live members but cannot be materialized, which is fine: the
	// test only reads the schedule.
	tg, _ := tenantRecorder(t, "tX-", func(uint64) {})
	if err := l.Submit(Tenant{Name: "tX", Graph: tg}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	sched := nodes[0].Schedule()
	for op, w := range sched.Assignments {
		if w == "w3" {
			t.Fatalf("operator %s placed on drained worker w3 (%v)", op, sched.Assignments)
		}
	}

	// Failover of w2 must re-place count onto w1 — the only live member —
	// never the drained w3.
	nodes[1].Kill()
	waitForEvent(t, l, EventRecovered, "w2")
	sched = nodes[0].Schedule()
	if got := sched.Assignments["count"]; got != "w1" {
		t.Fatalf("count re-placed on %q, want w1 (w3 is drained)", got)
	}
	for _, r := range sched.Routes {
		if r.Producer == "w3" {
			t.Fatalf("route produced by drained worker: %+v", r)
		}
		for _, c := range r.Consumers {
			if c == "w3" {
				t.Fatalf("route consumed by drained worker: %+v", r)
			}
		}
	}
}

// TestEventsRingBound: the leader's event log is a bounded ring — the
// oldest entries are evicted once the configured depth is exceeded, and
// Events returns the retained window oldest-first.
func TestEventsRingBound(t *testing.T) {
	l := &Leader{}
	WithEventHistory(3)(l)
	for i := 0; i < 10; i++ {
		l.pushEventLocked(Event{Kind: EventJoined, Epoch: uint64(i)})
	}
	got := l.Events()
	if len(got) != 3 {
		t.Fatalf("ring returned %d events, want 3", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Epoch != want {
			t.Fatalf("event %d epoch = %d, want %d (oldest-first window)", i, e.Epoch, want)
		}
	}
	// Non-positive depth keeps the default.
	d := &Leader{evDepth: defaultEventDepth}
	WithEventHistory(0)(d)
	if d.evDepth != defaultEventDepth {
		t.Fatalf("depth 0 overrode default: %d", d.evDepth)
	}
}

// TestJoinDialBackoffConfigurable: the rendezvous dial honors the
// configured attempt budget — one attempt against a dead address fails
// immediately instead of retrying through the default backoff.
func TestJoinDialBackoffConfigurable(t *testing.T) {
	// Grab a port that is certainly closed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	g := graph.New()
	start := time.Now()
	_, err = Join(addr, "w", g, worker.Options{}, WithDialBackoff(1, time.Millisecond))
	if err == nil {
		t.Fatal("join to dead address succeeded")
	}
	// One attempt means no backoff sleeps: even a conservative bound shows
	// the retry loop was skipped (default is 8 attempts over >600ms).
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("single-attempt join took %v, backoff not honored", d)
	}
}

// TestRejoinAfterFailover: a worker that failed over rejoins under its own
// name — failover forgets every record of it, as a drain does — and a live
// migration onto the rejoined worker stays exactly-once.
func TestRejoinAfterFailover(t *testing.T) {
	const hb = 100 * time.Millisecond
	sums := newLedger()
	l, nodes, in := startElastic(t, []string{"w1", "w2", "w3"}, hb, sums.record)
	inject := injector(t, nodes[0], in)
	inject(1, 8)
	sums.await(8)

	nodes[1].Kill()
	waitForEvent(t, l, EventRecovered, "w2")
	inject(9, 12)
	sums.await(12)

	n2, err := Join(l.Addr(), "w2", g3(t, nodes[0]), worker.Options{})
	if err != nil {
		t.Fatalf("rejoin after failover: %v", err)
	}
	defer n2.Close()
	waitForEvent(t, l, EventJoined, "w2")
	if got := l.Members(); len(got) != 3 || got[1] != "w2" {
		t.Fatalf("members after rejoin = %v, want [w1 w2 w3]", got)
	}

	host := nodes[0].Schedule().Assignments["count"]
	done := make(chan struct{})
	go func() {
		defer close(done)
		inject(13, 20)
	}()
	if err := l.Migrate(host, []string{"count"}, "w2"); err != nil {
		t.Fatalf("migrate onto the rejoined worker: %v", err)
	}
	<-done
	if !n2.Worker.Has("count") {
		t.Fatal("rejoined w2 did not adopt count")
	}
	inject(21, 25)
	sums.await(25)
	checkExactlyOnce(t, sums, 25)
}

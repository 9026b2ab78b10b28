package cluster

import (
	"encoding/gob"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// fakeWorker speaks the worker side of the control protocol and nothing
// more: it registers, answers ready and heartbeats every hb, but never acks
// a reschedule. Its data address takes no connections, so as an initial
// member its name must sort before every real worker's (the later name of
// a pair dials, and Join fails if a dial does).
func fakeWorker(t *testing.T, addr, name string, hb time.Duration) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	t.Cleanup(func() { conn.Close() })
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var sm scheduleMsg
	var st startMsg
	if enc.Encode(registerMsg{Name: name, DataAddr: "127.0.0.1:1"}) != nil || dec.Decode(&sm) != nil ||
		enc.Encode(readyMsg{Name: name}) != nil || dec.Decode(&st) != nil {
		t.Errorf("%s: start handshake failed", name)
		return
	}
	go func() {
		for {
			var cm ctrlMsg
			if dec.Decode(&cm) != nil {
				return
			}
		}
	}()
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for range tick.C {
			if enc.Encode(ctrlMsg{M: heartbeatMsg{Name: name}}) != nil {
				return
			}
		}
	}()
}

// startWithLaggard boots a resident leader over g with the real workers
// and, unless fake is "", a fake worker of that name beside them.
func startWithLaggard(t *testing.T, g *graph.Graph, in stream.ID, fake string, real []string, hb time.Duration, jopts ...JoinOption) (*Leader, []*Node) {
	t.Helper()
	names := real
	if fake != "" {
		names = append([]string{fake}, real...)
	}
	l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, nil, WithHeartbeat(hb, 3*hb/2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	nodes := make([]*Node, len(real))
	errs := make([]error, len(real))
	var wg sync.WaitGroup
	if fake != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fakeWorker(t, l.Addr(), fake, hb)
		}()
	}
	for i, name := range real {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{}, jopts...)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %s: %v", real[i], err)
		}
		t.Cleanup(nodes[i].Close)
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	return l, nodes
}

// checkGone asserts w appears nowhere in n's applied schedule.
func checkGone(t *testing.T, n *Node, w string) {
	t.Helper()
	sched := n.Schedule()
	if _, ok := sched.PeerAddrs[w]; ok {
		t.Fatalf("%s still in %s's peer map: %v", w, n.Name, sched.PeerAddrs)
	}
	for op, host := range sched.Assignments {
		if host == w {
			t.Fatalf("%s still assigned to %s: %v", op, w, sched.Assignments)
		}
	}
}

// TestSubmitNeverAckingWorker: a tenant homed on a survivor that never
// acks is not admitted in silence, nor left half admitted. The laggard is
// declared failed as heartbeat silence would declare it, the failover that
// follows re-places the tenant onto the live workers and releases its
// barrier, and only then does Submit return nil, with the laggard in the
// event log; the tenant runs.
func TestSubmitNeverAckingWorker(t *testing.T) {
	const hb = 100 * time.Millisecond
	g, in := buildFailoverGraph(t, func(uint64, int) {})
	var regMu sync.Mutex
	registry := make(map[string]*graph.Graph)
	resolve := func(name string) *graph.Graph {
		regMu.Lock()
		defer regMu.Unlock()
		return registry[name]
	}
	l, nodes := startWithLaggard(t, g, in, "w0", []string{"w1", "w2"}, hb, WithTenantResolver(resolve))

	seen := newLedger()
	tg, tin := tenantRecorder(t, "tA-", func(l uint64) { seen.record(l, 0) })
	regMu.Lock()
	registry["tA"] = tg
	regMu.Unlock()
	// w0 is a recipient of every transaction, so Submit meets it whatever
	// home it picks (idle and unscored, w0 itself is the likeliest).
	if err := l.Submit(Tenant{Name: "tA", Graph: tg, IngestAt: map[stream.ID]string{tin: "w1"}}); err != nil {
		t.Fatalf("submit past a never-acking worker: %v", err)
	}
	var lag, rec, admitted bool
	for _, e := range l.Events() {
		switch {
		case e.Kind == EventFailureDetected && e.Worker == "w0":
			lag = true
		case e.Kind == EventRecovered && e.Worker == "w0":
			rec = lag
		case e.Kind == EventTenantAdmitted:
			admitted = rec
		}
	}
	if !admitted {
		t.Fatalf("Submit returned before w0 was failed, recovered and tA admitted, in that order: %v", l.Events())
	}
	if err := l.Submit(Tenant{Name: "tA", Graph: tg}); err == nil || !strings.Contains(err.Error(), "already admitted") {
		t.Fatalf("resubmit: err = %v, want already admitted", err)
	}
	if got := l.Members(); len(got) != 2 || got[0] != "w1" {
		t.Fatalf("members = %v, want [w1 w2]", got)
	}
	for _, n := range nodes {
		checkGone(t, n, "w0")
	}
	inject := injector(t, nodes[0], tin)
	inject(1, 5)
	seen.await(5)
}

// TestFailoverNeverAckingSurvivor: failover re-places the dead worker's
// stateful operator onto a survivor that never acks. The laggard is
// declared failed too, and the operator moves on to a live worker with the
// checkpoint it was shipped — the producer's replay ring has wrapped, so
// restarting from empty state would break the ledger — exactly-once.
func TestFailoverNeverAckingSurvivor(t *testing.T) {
	const hb = 100 * time.Millisecond
	sums := newLedger()
	g, in := buildFailoverGraph(t, sums.record)
	l, nodes := startWithLaggard(t, g, in, "w0", []string{"w1", "w2"}, hb)
	inject := injector(t, nodes[0], in)
	const wrapped = replayDepth // 2×replayDepth messages: the ring keeps the last half
	inject(1, wrapped)
	sums.await(wrapped)
	for {
		l.mu.Lock()
		cp, ok := l.checkpoints["w2"]["count"]
		l.mu.Unlock()
		if ok && cp.L >= wrapped {
			break
		}
		time.Sleep(hb / 4)
	}

	// w0 is a recipient of w2's failover (and, idle, the likeliest new
	// home of count) and never acks it.
	nodes[1].Kill()
	waitForEvent(t, l, EventFailureDetected, "w2")
	lag := waitForEvent(t, l, EventFailureDetected, "w0")
	rec := waitForEvent(t, l, EventRecovered, "")
	if rec.Worker != "w0" || rec.Epoch != lag.Epoch {
		t.Fatalf("first recovery %+v is not the laggard's failover: the barrier w0 never acked was released (%+v)", rec, l.Events())
	}
	checkGone(t, nodes[0], "w0")
	checkGone(t, nodes[0], "w2")
	if !nodes[0].Worker.Has("count") {
		t.Fatalf("count not re-placed on w1: %v", nodes[0].Schedule().Assignments)
	}
	inject(wrapped+1, wrapped+10)
	sums.await(wrapped + 10)
	checkExactlyOnce(t, sums, wrapped+10)
}

// TestJoinUnreachableJoiner: a joiner that completes the handshake but
// whose data address refuses connections is its own problem, not the
// existing workers'. They dial it with backoff (8 attempts from 20 ms, far
// past the 4×FailAfter ack bound), yet ack within the bound, so the join's
// barrier is released, no real worker is declared failed, and the pipeline
// on them stays exactly-once.
func TestJoinUnreachableJoiner(t *testing.T) {
	const hb = 100 * time.Millisecond
	sums := newLedger()
	g, in := buildFailoverGraph(t, sums.record)
	l, nodes := startWithLaggard(t, g, in, "", []string{"w1", "w2"}, hb, WithDialBackoff(8, 20*time.Millisecond))
	// w9 sorts after w1 and w2, so both dial it.
	fakeWorker(t, l.Addr(), "w9", hb)
	for joined := false; !joined; time.Sleep(time.Millisecond) {
		for _, e := range l.Events() {
			if e.Kind == EventFailureDetected {
				t.Fatalf("%s declared failed while w9 joined: %v", e.Worker, l.Events())
			}
			joined = joined || e.Kind == EventJoined && e.Worker == "w9"
		}
	}
	if got := l.Members(); len(got) != 3 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("members = %v, want [w1 w2 w9]", got)
	}
	inject := injector(t, nodes[0], in)
	inject(1, 10)
	sums.await(10)
	checkExactlyOnce(t, sums, 10)
}

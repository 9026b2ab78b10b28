package cluster

import (
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// buildTriGraph is a three-stage pipeline pinned across three workers:
// ingest -> double(w1) -> addTen(w2) -> negate(w3) -> out, extracted on w1.
func buildTriGraph(t *testing.T) (*graph.Graph, stream.ID, stream.ID) {
	t.Helper()
	g := graph.New()
	in := g.AddStream("in", "int")
	mid := g.AddStream("mid", "int")
	mid2 := g.AddStream("mid2", "int")
	out := g.AddStream("out", "int")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	// Payloads are []byte so every data frame rides the raw path — the
	// test asserts the whole mesh, ring and TCP edges alike, is gob-free.
	stage := func(name, placement string, from, to stream.ID, f func(byte) byte) {
		err := g.AddOperator(&operator.Spec{
			Name: name, Placement: placement,
			Inputs: []stream.ID{from}, Outputs: []stream.ID{to},
			AutoWatermark: true,
			OnData: func(ctx *operator.Context, _ int, m message.Message) {
				_ = ctx.Send(0, m.Timestamp, []byte{f(m.Payload.([]byte)[0])})
			},
			OnWatermark: func(ctx *operator.Context) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stage("double", "w1", in, mid, func(v byte) byte { return v * 2 })
	stage("addTen", "w2", mid, mid2, func(v byte) byte { return v + 10 })
	stage("flip", "w3", mid2, out, func(v byte) byte { return v ^ 0xFF })
	return g, in, out
}

// TestMixedBackendCluster runs a cluster where two workers share a host
// (ring links) and a third does not (TCP links): the w1-w2 edge must come
// up as scheme "shm" on both sides, every w3 edge as "tcp", with zero gob
// data-plane frames anywhere and exactly-once results end to end.
func TestMixedBackendCluster(t *testing.T) {
	g, in, out := buildTriGraph(t)
	ingestAt := map[stream.ID]string{in: "w1"}
	extractAt := map[stream.ID][]string{out: {"w1"}}
	l, err := NewLeader("127.0.0.1:0", []string{"w1", "w2", "w3"}, g, ingestAt, extractAt)
	if err != nil {
		t.Fatal(err)
	}

	jopts := map[string][]JoinOption{
		"w1": {WithHostLocality("hostA", t.TempDir())},
		"w2": {WithHostLocality("hostA", t.TempDir())},
		"w3": nil, // different host: TCP everywhere
	}
	var nodes [3]*Node
	var wg sync.WaitGroup
	var errs [3]error
	for i, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{}, jopts[name]...)
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

	wantSchemes := map[string]map[string]string{
		"w1": {"w2": "shm", "w3": "tcp"},
		"w2": {"w1": "shm", "w3": "tcp"},
		"w3": {"w1": "tcp", "w2": "tcp"},
	}
	for i, name := range []string{"w1", "w2", "w3"} {
		got := nodes[i].Transport.PeerSchemes()
		for peer, scheme := range wantSchemes[name] {
			if got[peer] != scheme {
				t.Fatalf("%s->%s scheme = %q, want %q (all: %v)", name, peer, got[peer], scheme, got)
			}
		}
	}

	var mu sync.Mutex
	var results []byte
	if err := nodes[0].Worker.Subscribe(out, func(m message.Message) {
		if m.IsData() {
			mu.Lock()
			results = append(results, m.Payload.([]byte)[0])
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for l := uint64(1); l <= n; l++ {
		if err := nodes[0].Worker.Inject(in, message.Data(ts(l), []byte{byte(l)})); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		k := len(results)
		mu.Unlock()
		if k >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d results, want %d", k, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) != n {
		t.Fatalf("results = %d, want exactly %d (duplicates?)", len(results), n)
	}
	for i, v := range results {
		if want := byte((i+1)*2+10) ^ 0xFF; v != want {
			t.Fatalf("result[%d] = %d, want %d", i, v, want)
		}
	}
	// The data plane must stay zero-gob on ring and TCP links alike.
	for i, name := range []string{"w1", "w2", "w3"} {
		s, r := nodes[i].Transport.SentFrames(), nodes[i].Transport.ReceivedFrames()
		if s.Gob != 0 || r.Gob != 0 {
			t.Fatalf("%s: gob data-plane frames: sent %+v recv %+v", name, s, r)
		}
	}
}

// TestFailoverRingSeverTCPFallback severs a live ring link mid-run and
// requires the heartbeat-tick link repair to re-dial the peer over TCP
// (the ring is suspect after a sever), with traffic flowing end to end
// both before and after, each message delivered exactly once.
func TestFailoverRingSeverTCPFallback(t *testing.T) {
	g, in, out := buildGraph(t)
	ingestAt := map[stream.ID]string{in: "w1"}
	extractAt := map[stream.ID][]string{out: {"w1"}}
	l, err := NewLeader("127.0.0.1:0", []string{"w1", "w2"}, g, ingestAt, extractAt,
		WithHeartbeat(50*time.Millisecond, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	dir := t.TempDir()
	var nodes [2]*Node
	var wg sync.WaitGroup
	var errs [2]error
	for i, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{},
				WithHostLocality("hostA", dir))
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
	if s := nodes[1].Transport.PeerSchemes()["w1"]; s != "shm" {
		t.Fatalf("pre-sever scheme = %q, want shm", s)
	}

	var mu sync.Mutex
	var results []int
	if err := nodes[0].Worker.Subscribe(out, func(m message.Message) {
		if m.IsData() {
			mu.Lock()
			results = append(results, m.Payload.(int))
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	inject := func(from, to uint64) {
		for l := from; l <= to; l++ {
			if err := nodes[0].Worker.Inject(in, message.Data(ts(l), int(l))); err != nil {
				t.Fatal(err)
			}
			if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
				t.Fatal(err)
			}
		}
	}
	await := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			k := len(results)
			mu.Unlock()
			if k >= want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("got %d results, want %d", k, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	inject(1, 5)
	await(5)

	// Sever the ring from the accept side; the dialer (w2, the larger
	// name) must notice on a heartbeat tick, mark the ring suspect, and
	// come back over TCP.
	if err := nodes[0].Transport.Disconnect("w2"); err != nil {
		t.Fatal(err)
	}
	// Wait until both ends agree the link is back over TCP, and stably so
	// (two observations a heartbeat apart): mid-repair there are transient
	// windows where one side holds a conn the other has already dropped,
	// and messages forwarded into such a window are lost exactly as they
	// would be on a TCP-only cluster.
	deadline := time.Now().Add(5 * time.Second)
	for stable := 0; stable < 2; {
		a := nodes[0].Transport.PeerSchemes()["w2"]
		b := nodes[1].Transport.PeerSchemes()["w1"]
		if a == "tcp" && b == "tcp" {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-sever schemes = %q/%q, want tcp/tcp", a, b)
		}
		time.Sleep(50 * time.Millisecond)
	}
	inject(6, 10)
	await(10)
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 10 {
		t.Fatalf("results = %d, want exactly 10 (duplicates after repair?)", len(results))
	}
	seen := make(map[int]bool)
	for _, v := range results {
		if seen[v] {
			t.Fatalf("duplicate result %d after ring repair", v)
		}
		seen[v] = true
	}
}

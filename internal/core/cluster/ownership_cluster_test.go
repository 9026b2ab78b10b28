package cluster

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// ownFrames and ownBytes size the ownership test: enough frames that every
// pooled buffer is recycled and handed out again many times over.
const (
	ownFrames = 2000
	ownBytes  = 4096
	ownWindow = 16
)

// ownFill writes frame l's pattern into p: l in the first word, then bytes
// derived from l and the offset, so a recycled-and-refilled buffer cannot
// pass for the frame it used to hold.
func ownFill(p []byte, l uint64) {
	binary.LittleEndian.PutUint64(p, l)
	for i := 8; i < len(p); i++ {
		p[i] = byte(l*31 + uint64(i))
	}
}

// ownCheck reports whether p holds frame l's pattern.
func ownCheck(p []byte, l uint64) bool {
	if len(p) != ownBytes || binary.LittleEndian.Uint64(p) != l {
		return false
	}
	for i := 8; i < len(p); i++ {
		if p[i] != byte(l*31+uint64(i)) {
			return false
		}
	}
	return true
}

// TestOwnedPayloadsClusterFanout drives a broadcast route through all three
// receive sites that hand the worker an owned payload: hostB's relay
// injects its own decode and republishes onto its ring, hostB's other
// worker reads the ring, and hostC's lone worker receives over TCP. Two
// consumers per worker read every payload in full while the pool recycles
// and reuses the buffers; under -race a buffer recycled before its last
// reader returned is a reported race, and without it a corrupted pattern.
func TestOwnedPayloadsClusterFanout(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4"}
	hosts := map[string]string{"w1": "hostA", "w2": "hostB", "w3": "hostB", "w4": "hostC"}
	g := graph.New()
	in := g.AddStream("in", "bytes")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	extractAt := make(map[stream.ID][]string)
	var outs []stream.ID
	for _, w := range names[1:] {
		for _, c := range []string{"a", "b"} {
			out := g.AddStream("ok-"+w+c, "bytes")
			outs = append(outs, out)
			extractAt[out] = []string{"w1"}
			if err := g.AddOperator(&operator.Spec{
				Name: "check-" + w + c, Placement: w,
				Inputs: []stream.ID{in}, Outputs: []stream.ID{out},
				AutoWatermark: true,
				OnData: func(ctx *operator.Context, _ int, m message.Message) {
					ok := byte(0)
					if ownCheck(m.Payload.([]byte), m.Timestamp.L) {
						ok = 1
					}
					_ = ctx.Send(0, m.Timestamp, []byte{ok})
				},
				OnWatermark: func(*operator.Context) {},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	for _, n := range nodes {
		if n != nil {
			defer n.Close()
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %s: %v", names[i], err)
		}
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}

	// Each frame completes when all six consumers have answered; a
	// semaphore keeps ownWindow frames in flight.
	var mu sync.Mutex
	answers := make([]int, ownFrames+1)
	bad := 0
	window := make(chan struct{}, ownWindow)
	for _, out := range outs {
		if err := nodes[0].Worker.Subscribe(out, func(m message.Message) {
			if !m.IsData() {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if m.Payload.([]byte)[0] != 1 {
				bad++
			}
			answers[m.Timestamp.L]++
			if answers[m.Timestamp.L] == len(outs) {
				<-window
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for f := uint64(1); f <= ownFrames; f++ {
		select {
		case window <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatalf("frame %d: window never drained (a delivery was lost)", f)
		}
		p := make([]byte, ownBytes)
		ownFill(p, f)
		if err := nodes[0].Worker.Inject(in, message.Data(ts(f), p)); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(in, message.Watermark(ts(f))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ownWindow; i++ {
		select {
		case window <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("the last frames never completed")
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d of %d payload reads saw another frame's bytes", bad, ownFrames*len(outs))
	}
	for f := 1; f <= ownFrames; f++ {
		if answers[f] != len(outs) {
			t.Fatalf("frame %d: %d answers, want %d", f, answers[f], len(outs))
		}
	}
	// All three receive sites carried the fanout.
	if _, recv, _ := nodes[1].Transport.RelayStats(); recv == 0 {
		t.Fatal("w2 never relayed: the relay self-inject site went unexercised")
	}
	if frames, _ := nodes[1].bus.Stats(); frames == 0 {
		t.Fatal("w2's ring never carried the fanout: the ring read site went unexercised")
	}
	if s := nodes[3].Transport.PeerSchemes()["w1"]; s != "tcp" {
		t.Fatalf("w4<-w1 scheme = %q, want tcp", s)
	}
}

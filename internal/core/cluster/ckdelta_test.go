package cluster

import (
	"bytes"
	"encoding/gob"
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

// mkCheckpoint builds a multi-version checkpoint with one fat blob per
// logical time, newest last.
func mkCheckpoint(blob int, ls ...uint64) state.Checkpoint {
	cp := state.Checkpoint{HasState: true}
	for i, l := range ls {
		b := bytes.Repeat([]byte{byte(l)}, blob)
		if i == len(ls)-1 {
			cp.L, cp.State = l, b
		} else {
			cp.Older = append(cp.Older, state.Version{L: l, State: b})
		}
	}
	return cp
}

func versionLs(cp state.Checkpoint) []uint64 {
	var ls []uint64
	for _, v := range cp.Older {
		ls = append(ls, v.L)
	}
	return append(ls, cp.L)
}

// TestTrimAndMergeCheckpoints: trimming against an acked watermark plus the
// leader-side splice must reconstruct exactly the checkpoint a full
// heartbeat would have shipped — and the trimmed wire message must be a
// small fraction of the full one.
func TestTrimAndMergeCheckpoints(t *testing.T) {
	const blob = 4 << 10
	full := mkCheckpoint(blob, 1, 2, 3, 4, 5)

	// Nothing acked: the checkpoint ships untouched.
	got := trimCheckpoints(map[string]state.Checkpoint{"op": full}, nil)
	if len(got["op"].Older) != 4 {
		t.Fatalf("unacked trim dropped versions: %v", versionLs(got["op"]))
	}

	// Acked through 3: only versions 4 and 5 travel.
	delta := trimCheckpoints(map[string]state.Checkpoint{"op": full}, map[string]uint64{"op": 3})
	if ls := versionLs(delta["op"]); len(ls) != 2 || ls[0] != 4 || ls[1] != 5 {
		t.Fatalf("trimmed versions = %v, want [4 5]", ls)
	}

	// The leader retains through 3; splicing the delta must reconstruct
	// the full version set, byte for byte.
	retained := mkCheckpoint(blob, 1, 2, 3)
	merged := mergeCheckpoints(map[string]state.Checkpoint{"op": retained}, delta)
	mls := versionLs(merged["op"])
	fls := versionLs(full)
	if len(mls) != len(fls) {
		t.Fatalf("merged versions = %v, want %v", mls, fls)
	}
	for i := range mls {
		if mls[i] != fls[i] {
			t.Fatalf("merged versions = %v, want %v", mls, fls)
		}
	}
	if !bytes.Equal(merged["op"].Older[0].State, full.Older[0].State) ||
		!bytes.Equal(merged["op"].State, full.State) {
		t.Fatal("merged state bytes differ from the full checkpoint")
	}

	// Everything acked: the operator drops out of the heartbeat entirely.
	if got := trimCheckpoints(map[string]state.Checkpoint{"op": full}, map[string]uint64{"op": 5}); len(got) != 0 {
		t.Fatalf("fully-acked checkpoint still shipped: %v", got)
	}

	// A rewound delta (re-adopted operator) replaces the retained copy
	// outright rather than splicing a bogus newer tail underneath.
	rewound := mkCheckpoint(blob, 2)
	m := mergeCheckpoint(full, rewound)
	if ls := versionLs(m); len(ls) != 1 || ls[0] != 2 {
		t.Fatalf("rewound merge kept stale versions: %v", ls)
	}

	// The steady-state wire payload must collapse: compare encoded
	// heartbeats with full checkpoints vs fully-trimmed ones.
	encode := func(cps map[string]state.Checkpoint) int {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ctrlMsg{M: heartbeatMsg{Name: "w", Checkpoints: cps}}); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	fullSz := encode(map[string]state.Checkpoint{"op": full})
	steadySz := encode(trimCheckpoints(map[string]state.Checkpoint{"op": full}, map[string]uint64{"op": 5}))
	if steadySz*8 > fullSz {
		t.Fatalf("steady-state heartbeat %dB vs full %dB, want <1/8", steadySz, fullSz)
	}

	// The splice is bounded like state.Snapshot: merging a long retained
	// tail under a delta never exceeds the version cap.
	var many []uint64
	for l := uint64(1); l <= state.MaxCheckpointVersions+5; l++ {
		many = append(many, l)
	}
	wide := mkCheckpoint(16, many...)
	d := trimCheckpoints(map[string]state.Checkpoint{"op": wide}, map[string]uint64{"op": many[len(many)-2]})
	bounded := mergeCheckpoints(map[string]state.Checkpoint{"op": wide}, d)
	if n := len(bounded["op"].Older); n > state.MaxCheckpointVersions-1 {
		t.Fatalf("merged Older has %d versions, cap is %d", n, state.MaxCheckpointVersions-1)
	}
}

// blobState is deliberately fat so checkpoint payload dominates heartbeat
// size and the steady-state drop is unmistakable.
type blobState struct {
	N    int
	Data []byte
}

func init() { state.RegisterState(&blobState{}) }

// TestHeartbeatPayloadShrinksAtSteadyState runs a live cluster with a
// stateful operator carrying ~8KB per committed version and asserts the
// delta machinery end to end: heartbeats are fat only while new versions
// exist, collapse once the leader has acked them, and the leader's retained
// checkpoint still accumulates the full version tail for failover.
func TestHeartbeatPayloadShrinksAtSteadyState(t *testing.T) {
	const hb = 50 * time.Millisecond

	g := graph.New()
	in := g.AddStream("in", "int")
	out := g.AddStream("out", "int")
	if err := g.MarkIngest(in); err != nil {
		t.Fatal(err)
	}
	err := g.AddOperator(&operator.Spec{
		Name: "blob", Placement: "w2",
		Inputs: []stream.ID{in}, Outputs: []stream.ID{out},
		AutoWatermark: true,
		NewState: func() state.Store {
			return state.NewVersioned(&blobState{}, func(v any) any {
				c := *v.(*blobState)
				c.Data = append([]byte(nil), c.Data...)
				return &c
			})
		},
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			s := ctx.State().(*blobState)
			s.N += m.Payload.(int)
			s.Data = bytes.Repeat([]byte{byte(s.N)}, 8<<10)
		},
		OnWatermark: func(ctx *operator.Context) {
			_ = ctx.Send(0, ctx.Timestamp, ctx.State().(*blobState).N)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"w1", "w2"}
	l, err := NewLeader("127.0.0.1:0", names, g,
		map[stream.ID]string{in: "w1"}, nil,
		WithHeartbeat(hb, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	nodes := make([]*Node, 2)
	errs := make([]error, 2)
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
		defer nodes[i].Close()
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}

	const versions = 10
	for l := uint64(1); l <= versions; l++ {
		if err := nodes[0].Worker.Inject(in, message.Data(ts(l), 1)); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Worker.Inject(in, message.Watermark(ts(l))); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the leader to retain the newest committed version, and for
	// w2 to record the fat heartbeat that carried it (the node notes a
	// heartbeat's size only after the leader may already have read it).
	var peak uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		peak = nodes[1].HeartbeatPeakBytes()
		l.mu.Lock()
		cp, ok := l.checkpoints["w2"]["blob"]
		l.mu.Unlock()
		if ok && cp.L == versions && peak >= 8<<10 {
			break
		}
		if time.Now().After(deadline) {
			if ok && cp.L == versions {
				t.Fatalf("peak heartbeat only %dB — fat checkpoints never shipped?", peak)
			}
			t.Fatalf("leader never retained version %d (have %+v)", versions, ok)
		}
		time.Sleep(time.Millisecond)
	}

	// Steady state: no new commits, so after the ack round-trip every
	// subsequent heartbeat must carry no checkpoint payload at all.
	deadline = time.Now().Add(5 * time.Second)
	for {
		b := nodes[1].HeartbeatBytes()
		if b > 0 && b < peak/8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("steady-state heartbeat still %dB (peak %dB), want <1/8 of peak", b, peak)
		}
		time.Sleep(hb / 2)
	}

	// Despite never re-shipping, the leader's retained checkpoint holds
	// the accumulated version tail — the failover path sees exactly what
	// full heartbeats would have given it.
	l.mu.Lock()
	cp := l.checkpoints["w2"]["blob"]
	l.mu.Unlock()
	if cp.L != versions || len(cp.Older) < versions-2 {
		t.Fatalf("retained checkpoint L=%d with %d older versions, want L=%d with a near-full tail",
			cp.L, len(cp.Older), versions)
	}
}

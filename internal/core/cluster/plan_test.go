package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// planView is a view over g with every member live and advertising a data
// address (and a host, when hosts names one), at epoch 4.
func planView(g graph.View, assign map[string]string, hosts map[string]string, members ...string) view {
	v := view{g: g, assign: assign, members: members, alive: map[string]bool{}, draining: map[string]bool{},
		adverts: map[string]registerMsg{}, frontiers: map[string]map[stream.ID]uint64{},
		checkpoints: map[string]map[string]state.Checkpoint{}, heartbeat: 100 * time.Millisecond,
		failAfter: 150 * time.Millisecond, epoch: 4}
	for _, w := range members {
		v.alive[w] = true
		v.adverts[w] = registerMsg{Name: w, DataAddr: w + ":1", HostID: hosts[w]}
	}
	return v
}

func streamID(t *testing.T, g graph.View, name string) stream.ID {
	t.Helper()
	for _, s := range g.Streams() {
		if s.Name == name {
			return s.ID
		}
	}
	t.Fatalf("no stream %q", name)
	return 0
}

// TestPlan drives the one planner over the graph shapes the cluster tests
// reconfigure: which operators ship checkpoints, where each orphan's
// restore cut lands, who takes part in the barrier, and what the schedule
// says. The extract-point rows pin the cut rule for a producer whose only
// reader is a subscription-only extraction point: it restores at the
// extracting worker's reported frontier, never unconstrained, unless that
// extractor is the worker that left.
func TestPlan(t *testing.T) {
	cp := mkCheckpoint(1, 3, 5, 7, 9)

	// Failover graph: in(ingest on w1) -> count(w2) -> mid -> sink(w1).
	fg, fin := buildFailoverGraph(t, func(uint64, int) {})
	fassign := map[string]string{"count": "w2", "sink": "w1"}
	fmid := streamID(t, fg, "mid")

	// Relay-failover graph: src(w1) fans out to one counter per hostB
	// worker; every counter's sink sits on w1.
	rg, rin := buildRelayFailoverGraph(t, []string{"w2", "w3", "w4"}, func(string, uint64, int) {})
	rassign := map[string]string{"src": "w1"}
	for _, w := range []string{"w2", "w3", "w4"} {
		rassign["count-"+w], rassign["sink-"+w] = w, "w1"
	}
	rhosts := map[string]string{"w1": "hostA", "w2": "hostB", "w3": "hostB", "w4": "hostB"}
	rfan := uint64(streamID(t, rg, "fan"))

	// A tenant submitted onto the failover cluster.
	tg, _ := tenantRecorder(t, "tA-", func(uint64) {})
	multi, err := graph.NewMulti(fg)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Add(tg); err != nil {
		t.Fatal(err)
	}

	// A chain for a partial migration: in -> a -> x -> b -> y -> c, with a
	// and b on w2; a alone moves, so b stays on the donor as a reader.
	cg := graph.New()
	cin := cg.AddStream("in", "int")
	cx, cy := cg.AddStream("x", "int"), cg.AddStream("y", "int")
	if err := cg.MarkIngest(cin); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*operator.Spec{
		{Name: "a", Inputs: []stream.ID{cin}, Outputs: []stream.ID{cx}},
		{Name: "b", Inputs: []stream.ID{cx}, Outputs: []stream.ID{cy}},
		{Name: "c", Inputs: []stream.ID{cy}},
	} {
		if err := cg.AddOperator(spec); err != nil {
			t.Fatal(err)
		}
	}
	cassign := map[string]string{"a": "w2", "b": "w2", "c": "w1"}

	// A producer whose only reader is an extraction point.
	eg := graph.New()
	ein, eout := eg.AddStream("in", "int"), eg.AddStream("out", "int")
	if err := eg.MarkIngest(ein); err != nil {
		t.Fatal(err)
	}
	if err := eg.AddOperator(&operator.Spec{Name: "prod", Inputs: []stream.ID{ein}, Outputs: []stream.ID{eout}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		c          change
		v          func() view
		cuts       map[string]uint64
		shipped    []string // operators whose checkpoints travel
		recipients []string
		check      func(t *testing.T, rc reconfig)
	}{{
		name: "failover",
		c:    change{assign: moved(fassign, "w3", "count"), gone: "w2"},
		v: func() view {
			v := planView(fg, fassign, nil, "w1", "w3")
			v.ingest = map[stream.ID]string{fin: "w1"}
			v.frontiers["w1"] = map[stream.ID]uint64{fmid: 6}
			v.checkpoints["w2"] = map[string]state.Checkpoint{"count": cp}
			return v
		},
		cuts: map[string]uint64{"count": 6}, shipped: []string{"count"}, recipients: []string{"w1", "w3"},
		check: func(t *testing.T, rc reconfig) {
			if _, ok := rc.sched.PeerAddrs["w2"]; ok || rc.sched.Epoch != 5 || rc.ingest[fin] != "w1" {
				t.Fatalf("schedule names the dead worker or skips an epoch: %+v", rc.sched)
			}
		},
	}, {
		name: "relay failover",
		c:    change{assign: moved(rassign, "w3", "count-w2"), gone: "w2"},
		v: func() view {
			v := planView(rg, rassign, rhosts, "w1", "w3", "w4")
			v.ingest = map[stream.ID]string{rin: "w1"}
			v.frontiers["w1"] = map[stream.ID]uint64{streamID(t, rg, "mid-w2"): 11}
			v.checkpoints["w2"] = map[string]state.Checkpoint{"count-w2": cp}
			return v
		},
		cuts: map[string]uint64{"count-w2": 11}, shipped: []string{"count-w2"}, recipients: []string{"w1", "w3", "w4"},
		check: func(t *testing.T, rc reconfig) {
			if got := rc.sched.PeerRelay[rfan]["hostB"]; got != "w3" {
				t.Fatalf("relay on hostB = %q, want w3 re-elected", got)
			}
		},
	}, {
		name: "join without orphans",
		c:    change{assign: fassign},
		v: func() view {
			v := planView(fg, fassign, nil, "w1", "w2", "w3")
			v.alive["w3"] = false // the joiner is live only once started
			v.checkpoints["w2"] = map[string]state.Checkpoint{"count": cp}
			return v
		},
		cuts: map[string]uint64{}, recipients: []string{"w1", "w2"},
		check: func(t *testing.T, rc reconfig) {
			if rc.sched.PeerAddrs["w3"] != "w3:1" {
				t.Fatalf("joiner missing from the schedule: %v", rc.sched.PeerAddrs)
			}
		},
	}, {
		name: "tenant submit",
		c:    change{assign: moved(fassign, "w2", "tA-add", "tA-sink")},
		v: func() view {
			v := planView(multi, fassign, nil, "w1", "w2")
			v.tenants = []string{"tA"}
			return v
		},
		cuts: map[string]uint64{}, recipients: []string{"w1", "w2"},
		check: func(t *testing.T, rc reconfig) {
			if rc.sched.Assignments["tA-add"] != "w2" || !reflect.DeepEqual(rc.sched.Tenants, []string{"tA"}) {
				t.Fatalf("tenant not placed: %+v", rc.sched)
			}
		},
	}, {
		name: "partial migrate",
		c:    change{assign: moved(cassign, "w3", "a")},
		v: func() view {
			v := planView(cg, cassign, nil, "w1", "w2", "w3")
			v.frontiers["w2"] = map[stream.ID]uint64{cx: 8} // b, retained on the donor
			v.frontiers["w1"] = map[stream.ID]uint64{cy: 2}
			v.checkpoints["w2"] = map[string]state.Checkpoint{"a": cp, "b": cp}
			return v
		},
		cuts: map[string]uint64{"a": 8}, shipped: []string{"a"}, recipients: []string{"w1", "w2", "w3"},
	}, {
		name: "extract point unlisted",
		c:    change{assign: map[string]string{"prod": "w2"}, gone: "w1"},
		v: func() view {
			v := planView(eg, map[string]string{"prod": "w1"}, nil, "w2")
			v.frontiers["w2"] = map[stream.ID]uint64{eout: 7}
			return v
		},
		cuts: map[string]uint64{"prod": math.MaxUint64}, recipients: []string{"w2"},
	}, {
		name: "extract point bounds the cut",
		c:    change{assign: map[string]string{"prod": "w2"}, gone: "w1"},
		v: func() view {
			v := planView(eg, map[string]string{"prod": "w1"}, nil, "w2")
			v.frontiers["w2"] = map[stream.ID]uint64{eout: 7}
			v.extract = map[stream.ID][]string{eout: {"w2"}}
			return v
		},
		cuts: map[string]uint64{"prod": 7}, recipients: []string{"w2"},
	}, {
		name: "dead extract point",
		c:    change{assign: map[string]string{"prod": "w2"}, gone: "w1"},
		v: func() view {
			v := planView(eg, map[string]string{"prod": "w1"}, nil, "w2")
			v.frontiers["w2"] = map[stream.ID]uint64{eout: 7}
			v.extract = map[stream.ID][]string{eout: {"w1"}}
			return v
		},
		cuts: map[string]uint64{"prod": math.MaxUint64}, recipients: []string{"w2"},
		check: func(t *testing.T, rc reconfig) {
			if ws := rc.extract[eout]; len(ws) != 0 {
				t.Fatalf("dead extractor still listed: %v", ws)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := plan(tc.c, tc.v())
			if !reflect.DeepEqual(rc.cuts, tc.cuts) {
				t.Fatalf("cuts = %v, want %v", rc.cuts, tc.cuts)
			}
			var shipped []string
			for op := range rc.cps {
				shipped = append(shipped, op)
			}
			sort.Strings(shipped)
			if !reflect.DeepEqual(shipped, tc.shipped) {
				t.Fatalf("shipped checkpoints of %v, want %v", shipped, tc.shipped)
			}
			if !reflect.DeepEqual(rc.recipients, tc.recipients) {
				t.Fatalf("recipients = %v, want %v", rc.recipients, tc.recipients)
			}
			if !reflect.DeepEqual(rc.sched.Assignments, tc.c.assign) {
				t.Fatalf("schedule assigns %v, want %v", rc.sched.Assignments, tc.c.assign)
			}
			if tc.check != nil {
				tc.check(t, rc)
			}
		})
	}
}

package cluster

import (
	"sync"
	"testing"

	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// TestJoinReturnsWithFullMesh: the moment Join returns on a node, its data
// plane already links every other worker of the schedule, over TCP and
// over shm rings alike — no caller has to poll for the mesh.
func TestJoinReturnsWithFullMesh(t *testing.T) {
	for _, scheme := range []string{"tcp", "shm"} {
		t.Run(scheme, func(t *testing.T) {
			names := []string{"w1", "w2", "w3", "w4"}
			g, in, _ := buildRelayGraph(t, names[1:])
			l, err := NewLeader("127.0.0.1:0", names, g, map[stream.ID]string{in: "w1"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			nodes := make([]*Node, len(names))
			errs := make([]error, len(names))
			schemes := make([]map[string]string, len(names))
			var wg sync.WaitGroup
			for i, name := range names {
				wg.Add(1)
				go func(i int, name string) {
					defer wg.Done()
					var jopts []JoinOption
					if scheme == "shm" {
						jopts = append(jopts, WithHostLocality("hostA", dir))
					}
					nodes[i], errs[i] = Join(l.Addr(), name, g, worker.Options{}, jopts...)
					if errs[i] == nil {
						schemes[i] = nodes[i].Transport.PeerSchemes()
					}
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
			for i, name := range names {
				if len(schemes[i]) != len(names)-1 {
					t.Errorf("%s: links %v right after Join, want all %d peers", name, schemes[i], len(names)-1)
				}
				for _, peer := range names {
					if peer != name && schemes[i][peer] != scheme {
						t.Errorf("%s->%s scheme = %q right after Join, want %q", name, peer, schemes[i][peer], scheme)
					}
				}
			}
		})
	}
}

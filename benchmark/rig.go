package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/core/cluster"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/worker"
)

const (
	// heartbeatPeriod keeps the leader resident (checkpoints and congestion
	// ride the heartbeats); failAfter is far above any stall a shared box
	// produces, because a failover mid-run would measure another topology.
	heartbeatPeriod = 500 * time.Millisecond
	failAfter       = 20 * time.Second
)

// rig is one booted cluster: a leader and its workers in this process.
type rig struct {
	job    *job
	leader *cluster.Leader
	nodes  map[string]*cluster.Node
	shmDir string
}

// boot starts a leader and every worker of j, admits j's tenants and checks
// that the schedule is the topology the workload claims to measure. wrap,
// when non-nil, becomes every worker's WrapCallback.
func boot(j *job, shmRoot string, threads int, wrap func(op string, f func()) func()) (*rig, error) {
	dir, err := os.MkdirTemp(shmRoot, "r")
	if err != nil {
		return nil, err
	}
	r := &rig{job: j, nodes: make(map[string]*cluster.Node), shmDir: dir}
	registry := make(map[string]*graph.Graph, len(j.tenants))
	for _, t := range j.tenants {
		registry[t.name] = t.g
	}
	r.leader, err = cluster.NewLeader("127.0.0.1:0", j.workers, j.base, j.ingestAt, nil,
		cluster.WithHeartbeat(heartbeatPeriod, failAfter))
	if err != nil {
		r.close()
		return nil, err
	}
	// The leader releases schedules only once every expected worker has
	// registered, so the joins run concurrently.
	joined := make([]*cluster.Node, len(j.workers))
	errs := make([]error, len(j.workers))
	var wg sync.WaitGroup
	for i, name := range j.workers {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			joined[i], errs[i] = cluster.Join(r.leader.Addr(), name, j.base,
				worker.Options{Threads: threads, WrapCallback: wrap},
				cluster.WithHostLocality(j.hosts[name], dir),
				cluster.WithTenantResolver(func(t string) *graph.Graph { return registry[t] }))
		}(i, name)
	}
	wg.Wait()
	for i, name := range j.workers {
		if joined[i] != nil {
			r.nodes[name] = joined[i]
		}
		if errs[i] != nil && err == nil {
			err = fmt.Errorf("join %s: %w", name, errs[i])
		}
	}
	if err == nil {
		err = r.leader.Wait()
	}
	if err == nil {
		err = r.awaitMesh()
	}
	for _, t := range j.tenants {
		if err != nil {
			break
		}
		err = r.leader.Submit(cluster.Tenant{Name: t.name, Graph: t.g})
	}
	if err == nil {
		err = r.checkTopology()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// quiesce waits until the data plane is idle: every scheduled callback has
// run and no message has been delivered anywhere for longer than the
// coalescer can hold a frame. A frame's command can arrive while side work
// of the same frame (pDP, whose input the coalescer held) is still in
// flight; closing a transport under a sender strands its broadcast frame and
// the acquired == released check would blame the runtime for the
// benchmark's haste.
func (r *rig) quiesce() {
	const settle = 6 * time.Millisecond // above the 4 ms hold cap
	delivered := func() (n uint64) {
		for _, node := range r.nodes {
			node.Worker.Quiesce()
			n += node.Worker.Stats().Delivered
		}
		return n
	}
	deadline := time.Now().Add(drainTimeout)
	for last := delivered(); time.Now().Before(deadline); {
		time.Sleep(settle)
		now := delivered()
		if now == last {
			return
		}
		last = now
	}
}

// close quiesces and stops every worker and the leader and removes the ring
// files.
func (r *rig) close() {
	if len(r.nodes) == len(r.job.workers) {
		r.quiesce()
	}
	for _, n := range r.nodes {
		n.Close()
	}
	if r.leader != nil {
		r.leader.Stop()
	}
	os.RemoveAll(r.shmDir)
}

func (r *rig) schedule() cluster.Schedule { return r.nodes[r.job.workers[0]].Schedule() }

// nodeFor resolves the worker a lane injects on or extracts from.
func (r *rig) nodeFor(l *lane, name string) (*cluster.Node, error) {
	if l.homeOp != "" {
		name = r.schedule().Assignments[l.homeOp]
	}
	n := r.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("lane %q: no worker %q (home op %q)", l.name, name, l.homeOp)
	}
	return n, nil
}

// link is one directed worker-to-worker connection and the transport it
// rides.
type link struct {
	From, To, Scheme string
	CrossHost        bool
}

func (r *rig) links() []link {
	var out []link
	for _, from := range r.job.workers {
		for to, scheme := range r.nodes[from].Transport.PeerSchemes() {
			out = append(out, link{From: from, To: to, Scheme: scheme,
				CrossHost: r.job.hosts[from] != r.job.hosts[to]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// awaitMesh waits until every worker sees every other one. Join returns
// once the leader starts the cluster, but the accepting end of a link
// registers its peer on its own goroutine, and a frame sent to a peer that
// is not registered yet is dropped.
func (r *rig) awaitMesh() error {
	want := len(r.job.workers) * (len(r.job.workers) - 1)
	deadline := time.Now().Add(drainTimeout)
	for len(r.links()) != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("topology: %d directed links after %v, want a full mesh of %d", len(r.links()), drainTimeout, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// checkTopology is the part of the correctness gate that holds before any
// frame flows: numbers for another placement or another transport than the
// workload names are worse than no numbers.
func (r *rig) checkTopology() error {
	j := r.job
	assign := r.schedule().Assignments
	for _, l := range j.lanes {
		for _, op := range l.ops {
			if assign[op] == "" {
				return fmt.Errorf("topology: operator %q is not scheduled", op)
			}
		}
	}
	for _, op := range j.offIngest {
		for _, l := range j.lanes {
			if assign[op] == l.injectOn {
				return fmt.Errorf("topology: %s is on the ingest worker %s, so the frame never crosses hosts", op, l.injectOn)
			}
		}
	}
	for _, l := range j.lanes {
		for _, op := range l.outOps {
			if l.extractOn != "" && assign[op] != l.extractOn {
				return fmt.Errorf("topology: %s is on %s, not on the extract worker %s", op, assign[op], l.extractOn)
			}
		}
	}
	for _, lk := range r.links() {
		wantScheme := "tcp"
		if !lk.CrossHost {
			wantScheme = "shm"
		}
		if lk.Scheme != wantScheme {
			return fmt.Errorf("topology: link %s->%s rides %s, want %s", lk.From, lk.To, lk.Scheme, wantScheme)
		}
	}
	return nil
}

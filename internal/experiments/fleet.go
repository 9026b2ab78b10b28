// Fleet demo driven by `av-sim -fleet N`: N pylot tenants hosted on an
// elastic two-worker cluster backed by an in-process autoscaling pool.
// Tenant t0 runs under an unmeetable 1ms static deadline with bursty
// ingest — the overloaded tenant — while the rest run the default dynamic
// policy at a steady cadence. One run walks the whole elastic story:
// multi-tenant admission, congestion-driven scale-up, live migration of
// the hot tenant onto the spawned worker, and deadline isolation (urgency
// misses stay confined to t0).
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/cluster"
	"github.com/erdos-go/erdos/internal/core/cluster/elastic"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
	"github.com/erdos-go/erdos/internal/policy"
	"github.com/erdos-go/erdos/internal/pylot"
)

// FleetReport summarizes one elastic fleet run for cmd/av-sim.
type FleetReport struct {
	// Tenants is the number of pipelines hosted (first one overloaded).
	Tenants int
	// Workers is the final member set, autoscaled workers included.
	Workers []string
	// ScaleUps / Migrations / Joins / Drains count the elastic events the
	// leader recorded over the run.
	ScaleUps   int
	Migrations int
	Joins      int
	Drains     int
	// TenantMisses is the leader's per-tenant urgency-miss ledger; with
	// isolation working, only the overloaded tenant's entry is non-zero.
	TenantMisses map[string]uint64
	// ControlP50Ms / ControlP99Ms pool camera-to-command latency across
	// the healthy tenants only — the number overload must not inflate.
	ControlP50Ms float64
	ControlP99Ms float64
}

// Fleet-run shape: the hot tenant's burst pattern queues frames against a
// 1ms deadline without saturating the CPU, so urgency misses (and the
// congestion scores they feed) come from queueing delay, not starvation.
const (
	fleetHotFrames  = 240
	fleetWarmFrames = 20
	fleetFrames     = 60
)

// RunFleet hosts n pylot tenants (n >= 2) on an elastic cluster and
// drives them to completion, returning the run's elastic-event counts,
// per-tenant misses, and healthy-tenant latency percentiles.
func RunFleet(n int) (FleetReport, error) {
	rep := FleetReport{Tenants: n}
	if n < 2 {
		return rep, fmt.Errorf("fleet needs at least 2 tenants (1 hot + 1 healthy), got %d", n)
	}

	// Base graph every worker boots with; tenants arrive via Submit.
	base := erdos.NewGraph()
	baseIn := erdos.IngestStream[int](base, "base-in")
	noop := base.Operator("base-noop")
	erdos.Input(noop, baseIn, func(ctx *erdos.Context, ts erdos.Timestamp, v int) {})
	noop.Build()
	if err := base.Err(); err != nil {
		return rep, err
	}
	baseRaw := base.Raw()
	var baseID stream.ID
	for _, s := range baseRaw.Streams() {
		if s.Name == "base-in" {
			baseID = s.ID
		}
	}

	var mu sync.Mutex
	lats := make([]time.Duration, 0, (n-1)*fleetFrames)
	sent := make([][]time.Time, n)
	var hotSeen atomic.Int64
	type rig struct {
		name string
		raw  *graph.Graph
		cam  stream.ID
	}
	rigs := make([]rig, n)
	registry := make(map[string]*graph.Graph, n)
	for i := 0; i < n; i++ {
		i := i
		prefix := fmt.Sprintf("t%d-", i)
		cfg := pylot.Config{Prefix: prefix, TimeScale: 200, TargetSpeed: 12, Seed: int64(17 + i)}
		frames := fleetFrames
		if i == 0 {
			// The overloaded tenant: a pipeline fast enough (~0.5ms per
			// frame) that bursts queue behind each other, against a static
			// deadline no queued frame can meet.
			cfg.TimeScale = 40
			cfg.Policy = policy.StaticPolicy(time.Millisecond)
			cfg.Seed = 7
			frames = fleetHotFrames
		}
		sent[i] = make([]time.Time, frames)
		g := erdos.NewGraph()
		h := pylot.Build(g, cfg)
		sink := g.Operator(prefix + "sink")
		erdos.Input(sink, h.Commands, func(ctx *erdos.Context, ts erdos.Timestamp, c pylot.Command) {})
		sink.OnWatermark(func(ctx *erdos.Context) {
			l := ctx.Timestamp.L
			if l < 1 || l > uint64(frames) {
				return
			}
			if i == 0 {
				hotSeen.Add(1)
				return
			}
			lat := time.Since(sent[i][l-1]) //erdos:allow wallclock wall-clock camera-to-command latency IS the measurement; the harness sink is never replayed
			mu.Lock()
			lats = append(lats, lat) //erdos:allow statetxn lats is harness output read after the cluster quiesces, not operator state that restores
			mu.Unlock()
		})
		sink.Build()
		if err := g.Err(); err != nil {
			return rep, err
		}
		raw := g.Raw()
		r := rig{name: fmt.Sprintf("t%d", i), raw: raw}
		for _, s := range raw.Streams() {
			if s.Name == prefix+"camera" {
				r.cam = s.ID
			}
		}
		rigs[i] = r
		registry[r.name] = raw
	}
	resolve := func(name string) *graph.Graph { return registry[name] }

	pool := &cluster.ProcPool{
		Graph:    baseRaw,
		Opts:     worker.Options{Threads: 4},
		JoinOpts: []cluster.JoinOption{cluster.WithTenantResolver(resolve)},
	}
	defer pool.Close()
	names := []string{"w1", "w2"}
	l, err := cluster.NewLeader("127.0.0.1:0", names, baseRaw,
		map[stream.ID]string{baseID: "w1"}, nil,
		cluster.WithHeartbeat(200*time.Millisecond, 300*time.Millisecond),
		cluster.WithAutoscale(pool, elastic.Config{
			HighWater: 100, LowWater: 0,
			SustainTicks: 2, CooldownTicks: 8,
			MinWorkers: 2, MaxWorkers: 3,
		}))
	if err != nil {
		return rep, err
	}
	defer l.Stop()
	pool.Addr = l.Addr()

	// The leader releases schedules only once every expected worker has
	// registered, so the initial joins must run concurrently.
	nodes := make(map[string]*cluster.Node, len(names))
	joined := make([]*cluster.Node, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			joined[i], errs[i] = cluster.Join(l.Addr(), name, baseRaw,
				worker.Options{Threads: 4}, cluster.WithTenantResolver(resolve))
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			return rep, errs[i]
		}
		defer joined[i].Close()
		nodes[name] = joined[i]
	}
	if err := l.Wait(); err != nil {
		return rep, err
	}

	// Submit a healthy tenant first to learn its home, then ingest the hot
	// tenant there: its frames always cross a forwarding link, whose
	// replay ring covers them through the scale-up migration.
	if err := l.Submit(cluster.Tenant{Name: rigs[1].name, Graph: rigs[1].raw}); err != nil {
		return rep, err
	}
	anyNode := nodes[names[0]]
	homeHealthy := anyNode.Schedule().Assignments["t1-control"]
	if err := l.Submit(cluster.Tenant{Name: rigs[0].name, Graph: rigs[0].raw,
		IngestAt: map[stream.ID]string{rigs[0].cam: homeHealthy}}); err != nil {
		return rep, err
	}
	for i := 2; i < n; i++ {
		if err := l.Submit(cluster.Tenant{Name: rigs[i].name, Graph: rigs[i].raw}); err != nil {
			return rep, err
		}
	}
	inj := make([]*cluster.Node, n)
	inj[0] = nodes[homeHealthy]
	for i := 1; i < n; i++ {
		home := anyNode.Schedule().Assignments[fmt.Sprintf("t%d-control", i)]
		node := nodes[home]
		if node == nil {
			return rep, fmt.Errorf("tenant %s homed on unknown worker %q", rigs[i].name, home)
		}
		inj[i] = node
	}

	push := func(i, f int) error {
		ts := erdos.T(uint64(f))
		frame := pylot.CameraFrame{Seq: uint64(f), EgoSpeed: 12}
		if i != 0 {
			mu.Lock()
			sent[i][f-1] = time.Now()
			mu.Unlock()
		}
		if err := inj[i].Worker.Inject(rigs[i].cam, message.Data(ts, frame)); err != nil {
			return err
		}
		return inj[i].Worker.Inject(rigs[i].cam, message.Watermark(ts))
	}

	injErrs := make([]error, 2)
	var injWg sync.WaitGroup
	injWg.Add(2)
	go func() {
		// Hot tenant: a warm-up at steady cadence, then back-to-back
		// bursts of 8 — tail frames dispatch more than 1ms after arrival,
		// missing the static deadline at ~10% CPU.
		defer injWg.Done()
		for f := 1; f <= fleetHotFrames; f++ {
			if err := push(0, f); err != nil {
				injErrs[0] = err
				return
			}
			if f <= fleetWarmFrames {
				time.Sleep(20 * time.Millisecond)
			} else if f%8 == 0 {
				time.Sleep(50 * time.Millisecond)
			}
		}
	}()
	go func() {
		defer injWg.Done()
		for f := 1; f <= fleetFrames; f++ {
			for i := 1; i < n; i++ {
				if err := push(i, f); err != nil {
					injErrs[1] = err
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	injWg.Wait()
	for _, err := range injErrs {
		if err != nil {
			return rep, err
		}
	}

	deadline := time.Now().Add(90 * time.Second)
	want := (n - 1) * fleetFrames
	for {
		mu.Lock()
		got := len(lats)
		mu.Unlock()
		if got >= want && hotSeen.Load() >= fleetHotFrames {
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("timed out with %d/%d healthy commands, %d/%d hot",
				got, want, hotSeen.Load(), fleetHotFrames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give an in-flight scale-up migration a moment to land so the report
	// reflects it; a run whose congestion never tripped proceeds at once.
	settle := time.Now().Add(10 * time.Second)
	for time.Now().Before(settle) {
		migrated := false
		for _, e := range l.Events() {
			if e.Kind == cluster.EventMigrated {
				migrated = true
			}
		}
		if migrated {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, e := range l.Events() {
		switch e.Kind {
		case cluster.EventScaleUp:
			rep.ScaleUps++
		case cluster.EventMigrated:
			rep.Migrations++
		case cluster.EventJoined:
			rep.Joins++
		case cluster.EventDrained:
			rep.Drains++
		}
	}
	rep.Workers = l.Members()
	rep.TenantMisses = l.TenantMisses()
	mu.Lock()
	rep.ControlP50Ms = percentileMs(lats, 50)
	rep.ControlP99Ms = percentileMs(lats, 99)
	mu.Unlock()
	return rep, nil
}

// percentileMs returns the p-th percentile of ds in milliseconds.
func percentileMs(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return float64(s[idx].Nanoseconds()) / 1e6
}

package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/av/tracking"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/policy"
	"github.com/erdos-go/erdos/internal/pylot"
)

// Time compression. pylot.Config.TimeScale compresses compute; deadlines
// must shrink with it, or the coalescer's real-time hold constants (1-4 ms
// when a frame has slack) are weighed against 500 ms deadlines and the
// benchmark would reward deleting batching. Decided deadlines are divided
// by deadlineCompression, so they span 6.25-25 ms.
const (
	deadlineCompression = 20
	initialDeadline     = 10 * time.Millisecond
	// latencyLimit is the compressed maximum deadline: a pylot frame
	// answered later than this is a miss.
	latencyLimit = 25 * time.Millisecond

	pylotTimeScale = 1000
	// tenantTimeScale was calibrated once on the 2-core reference box so
	// that operator callbacks take 20-30% of the available core-seconds
	// at 4 tenants x 50 Hz, then frozen. Do not retune it per machine.
	tenantTimeScale = 15

	pylotPeriod  = 10 * time.Millisecond // 100 Hz
	tenantPeriod = 20 * time.Millisecond // 50 Hz
	tenantCount  = 4
	tenantStride = 5 * time.Millisecond

	fanoutStages   = 8
	fanoutBytes    = 128 << 10
	fanoutInflight = 4
)

// compressedPolicy runs the paper's stopping-distance policy in compressed
// time: the measured response is expanded before deciding and the decided
// deadline is compressed afterwards.
type compressedPolicy struct{ inner policy.Policy }

func (p compressedPolicy) Decide(env policy.Environment) time.Duration {
	env.CurrentResponse *= deadlineCompression
	return p.inner.Decide(env) / deadlineCompression
}

// lane is one stream of frames through the cluster: where they enter, where
// their results leave, how they are paced, and how a result is checked.
type lane struct {
	name string
	in   stream.ID
	out  stream.ID
	// period > 0 paces the lane open loop (frame k is due at
	// offset + k*period); period == 0 is a closed loop with inflight
	// frames outstanding.
	period   time.Duration
	offset   time.Duration
	inflight int
	// payload returns frame k's payload; it is called once per k, in
	// increasing order, from the generator goroutine only.
	payload func(k int) any
	// resultsPerFrame is how many data messages on out answer one frame.
	// check validates one of them and says which of the frame's parts
	// (0..resultsPerFrame-1) it is: a frame is complete once every part has
	// arrived, so a part delivered twice cannot stand in for a missing one.
	resultsPerFrame int
	check           func(k int, v any) (part int, ok bool)
	// ops lists the lane's operators in critical-path order; inOps are the
	// first operators a frame reaches and outOps the last, which is how the
	// traced pass tells an inbound hop from an outbound one.
	// sideOps are operators off the blocking path (pDP feeds the deadlines
	// of later frames): the traced pass reports their busy time only.
	ops, inOps, outOps, sideOps []string
	// opKinds names, per ops entry, the operator.<kind>.busy_us metric the
	// operator's run time is reported under.
	opKinds []string
	// injectOn/extractOn name the workers frames enter and results leave
	// on; homeOp, when set, resolves both from the schedule instead (the
	// worker the leader homed a tenant on).
	injectOn, extractOn string
	homeOp              string
}

// tenant is a graph admitted through Leader.Submit after the cluster is up.
type tenant struct {
	name string
	g    *graph.Graph
}

// job is one workload built from a seed: graphs, lanes and topology.
type job struct {
	workers  []string
	hosts    map[string]string // worker -> simulated host
	base     *graph.Graph
	ingestAt map[stream.ID]string
	tenants  []tenant
	lanes    []*lane
	// limit is the latency limit for goodput; 0 means every correct frame
	// counts.
	limit time.Duration
	// offIngest lists operators that must not be placed on the ingest
	// worker: if they were, the frame would never cross hosts.
	offIngest []string
}

type workload struct {
	name  string
	why   string
	build func(seed int64) (*job, error)
}

var workloads = []workload{
	{"pylot-xhost", "one pylot pipeline over three simulated hosts: two loopback-TCP hops on every frame's critical path, so comm encode/coalesce/TCP/decode dominates the response", buildPylotXHost},
	{"pylot-1host", "the identical pipeline and load with all workers on one host (shm rings): TCP is bypassed, so a TCP-only change must move nothing here", buildPylot1Host},
	{"fanout-xhost", "one 128 KB sensor stream fanned out to 8 stages on two remote hosts, closed loop: comm used for bandwidth (broadcast frames, relays, rings, payload pool)", buildFanoutXHost},
	{"tenants-dense", "four pylot tenants submitted onto two same-host workers with real compute: lattice EDF dispatch, stealing and watermark handling dominate, transport does little", buildTenantsDense},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cameraFrames returns the seeded camera input of one pylot lane: oncoming
// traffic. Up to 12 agents close in on the vehicle at their own speeds and
// respawn far ahead once they pass, and the number in view sweeps 0..12 and
// back, so payload sizes, tracker cost and the decided deadline vary from
// frame to frame. The process mixes within a few hundred frames, so runs of
// different seeds see different frames drawn from the same distribution;
// a slow random walk would make every seed its own workload.
func cameraFrames(seed int64) func(k int) any {
	rng := rand.New(rand.NewSource(seed))
	const (
		maxAgents = 12
		dt        = 0.1 // seconds of driving per frame, as perception assumes
	)
	type agent struct{ x, y, closing float64 }
	var agents [maxAgents]agent
	spawn := func(a *agent, x float64) {
		*a = agent{x: x, y: float64(rng.Intn(3)-1) * 3.5, closing: 4 + rng.Float64()*8}
	}
	for i := range agents {
		spawn(&agents[i], 5+rng.Float64()*85)
	}
	phase := rng.Intn(2 * maxAgents)
	return func(k int) any {
		visible := (k + phase) % (2 * maxAgents)
		if visible > maxAgents {
			visible = 2*maxAgents - visible
		}
		f := pylot.CameraFrame{Seq: uint64(k + 1), EgoSpeed: 12}
		for i := range agents {
			a := &agents[i]
			a.x -= a.closing * dt
			if a.x < 3 {
				spawn(a, 60+rng.Float64()*30)
			}
			if i < visible {
				f.Agents = append(f.Agents, tracking.Observation{
					X: a.x + rng.NormFloat64()*0.05,
					Y: a.y + rng.NormFloat64()*0.05,
				})
			}
		}
		return f
	}
}

func checkCommand(_ int, v any) (int, bool) {
	c, ok := v.(pylot.Command)
	if !ok {
		return 0, false
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return 0, finite(c.Steer) && finite(c.Throttle) && finite(c.Brake) &&
		c.Throttle >= 0 && c.Throttle <= 1 && c.Brake >= 0 && c.Brake <= 1
}

// pylotLane builds one pylot pipeline under prefix and the lane that drives
// it.
func pylotLane(prefix string, seed int64, timeScale float64, period, offset time.Duration) (*erdos.Graph, *lane, error) {
	g := erdos.NewGraph()
	h := pylot.Build(g, pylot.Config{
		Prefix:      prefix,
		TimeScale:   timeScale,
		Policy:      compressedPolicy{policy.NewStoppingDistance()},
		Deadline:    initialDeadline,
		TargetSpeed: 12,
		Seed:        seed,
	})
	if err := g.Err(); err != nil {
		return nil, nil, err
	}
	pn := func(s string) string { return prefix + s }
	l := &lane{
		name:            prefix,
		in:              h.Camera.ID(),
		out:             h.Commands.ID(),
		period:          period,
		offset:          offset,
		payload:         cameraFrames(seed),
		resultsPerFrame: 1,
		check:           checkCommand,
		ops:             []string{pn("perception"), pn("prediction"), pn("planning"), pn("control"), pn("pDP")},
		opKinds:         []string{"perception", "prediction", "planning", "control", "pdp"},
		inOps:           []string{pn("perception")},
		outOps:          []string{pn("control")},
		sideOps:         []string{pn("pDP")},
	}
	return g, l, nil
}

func buildPylot(seed int64, hosts map[string]string) (*job, error) {
	g, l, err := pylotLane("", seed, pylotTimeScale, pylotPeriod, 0)
	if err != nil {
		return nil, err
	}
	// Camera frames enter and commands leave on w3 while the perception
	// group runs on w1, so every frame crosses w3->w1 and w1->w3. The pins
	// are the same on one host and on three, so the two workloads differ in
	// transport only.
	l.injectOn, l.extractOn = "w3", "w3"
	pins := map[string]string{"perception": "w1", "prediction": "w1", "planning": "w1", "pDP": "w2", "control": "w3"}
	for _, spec := range g.Raw().Operators() {
		spec.Placement = pins[spec.Name]
	}
	return &job{
		workers:   []string{"w1", "w2", "w3"},
		hosts:     hosts,
		base:      g.Raw(),
		ingestAt:  map[stream.ID]string{l.in: "w3"},
		lanes:     []*lane{l},
		limit:     latencyLimit,
		offIngest: []string{"perception", "prediction", "planning"},
	}, nil
}

func buildPylotXHost(seed int64) (*job, error) {
	return buildPylot(seed, map[string]string{"w1": "hostA", "w2": "hostB", "w3": "hostC"})
}

func buildPylot1Host(seed int64) (*job, error) {
	return buildPylot(seed, map[string]string{"w1": "hostA", "w2": "hostA", "w3": "hostA"})
}

func buildTenantsDense(seed int64) (*job, error) {
	// Workers boot with a trivial base graph; the tenants arrive afterwards
	// through Submit, as they would on a long-lived cluster.
	base := erdos.NewGraph()
	baseIn := erdos.IngestStream[int](base, "base-in")
	noop := base.Operator("base-noop")
	erdos.Input(noop, baseIn, func(*erdos.Context, erdos.Timestamp, int) {})
	noop.Build()
	if err := base.Err(); err != nil {
		return nil, err
	}
	j := &job{
		workers:  []string{"w1", "w2"},
		hosts:    map[string]string{"w1": "hostA", "w2": "hostA"},
		base:     base.Raw(),
		ingestAt: map[stream.ID]string{baseIn.ID(): "w1"},
		limit:    latencyLimit,
	}
	for i := 0; i < tenantCount; i++ {
		prefix := fmt.Sprintf("t%d-", i)
		g, l, err := pylotLane(prefix, seed+int64(i)*7919, tenantTimeScale, tenantPeriod, time.Duration(i)*tenantStride)
		if err != nil {
			return nil, err
		}
		l.homeOp = prefix + "control"
		j.tenants = append(j.tenants, tenant{name: fmt.Sprintf("t%d", i), g: g.Raw()})
		j.lanes = append(j.lanes, l)
	}
	return j, nil
}

// wordSum is the stage operators' whole computation and the checker's
// reference: the sum of the payload's little-endian 64-bit words.
func wordSum(b []byte) uint64 {
	var s uint64
	for ; len(b) >= 8; b = b[8:] {
		s += binary.LittleEndian.Uint64(b)
	}
	return s
}

func buildFanoutXHost(seed int64) (*job, error) {
	g := erdos.NewGraph()
	sensor := erdos.IngestStream[[]byte](g, "sensor")
	results := erdos.AddStream[[]byte](g, "results")
	merge := g.Operator("merge")
	mOut := erdos.Output(merge, results)
	stageWorkers := []string{"w2", "w3", "w4", "w5"}
	l := &lane{}
	for i := 0; i < fanoutStages; i++ {
		idx := byte(i)
		name := fmt.Sprintf("stage%d", i)
		sums := erdos.AddStream[[]byte](g, fmt.Sprintf("sum%d", i))
		st := g.Operator(name)
		out := erdos.Output(st, sums)
		erdos.Input(st, sensor, func(ctx *erdos.Context, t erdos.Timestamp, b []byte) {
			res := make([]byte, 9)
			res[0] = idx
			binary.LittleEndian.PutUint64(res[1:], wordSum(b))
			_ = ctx.Send(out, t, res)
		})
		st.Place(stageWorkers[i/2]).Build()
		erdos.Input(merge, sums, func(ctx *erdos.Context, t erdos.Timestamp, b []byte) {
			_ = ctx.Send(mOut, t, b)
		})
		l.ops = append(l.ops, name)
		l.opKinds = append(l.opKinds, "stage")
		l.inOps = append(l.inOps, name)
	}
	merge.Place("w1").Build()
	if err := g.Err(); err != nil {
		return nil, err
	}

	// A driver recycling fanoutInflight DMA buffers: the bulk of each
	// buffer is seeded once, the first word is restamped per frame so every
	// frame's sums differ.
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]byte, fanoutInflight)
	tails := make([]uint64, fanoutInflight)
	for i := range bufs {
		bufs[i] = make([]byte, fanoutBytes)
		rng.Read(bufs[i])
		tails[i] = wordSum(bufs[i][8:])
	}
	// payload runs on the generator goroutine and check on the extract
	// worker's callback goroutine; expected sums cross through want.
	var want wantSums
	l.ops = append(l.ops, "merge")
	l.opKinds = append(l.opKinds, "merge")
	l.outOps = []string{"merge"}
	l.in, l.out = sensor.ID(), results.ID()
	l.inflight = fanoutInflight
	l.injectOn, l.extractOn = "w1", "w1"
	l.resultsPerFrame = fanoutStages
	l.payload = func(k int) any {
		b := bufs[k%fanoutInflight]
		stamp := rng.Uint64()
		binary.LittleEndian.PutUint64(b, stamp)
		want.put(k, stamp+tails[k%fanoutInflight])
		return b
	}
	l.check = func(k int, v any) (int, bool) {
		b, ok := v.([]byte)
		if !ok || len(b) != 9 || int(b[0]) >= fanoutStages {
			return 0, false
		}
		return int(b[0]), binary.LittleEndian.Uint64(b[1:]) == want.get(k)
	}
	return &job{
		workers: []string{"w1", "w2", "w3", "w4", "w5"},
		hosts: map[string]string{
			"w1": "hostA", "w2": "hostB", "w3": "hostB", "w4": "hostC", "w5": "hostC",
		},
		base:     g.Raw(),
		ingestAt: map[stream.ID]string{sensor.ID(): "w1"},
		lanes:    []*lane{l},
	}, nil
}

// wantSums hands each frame's expected sum from the generator goroutine to
// the checker; a small ring suffices because at most fanoutInflight frames
// are outstanding.
type wantSums struct {
	slots [64]atomic.Uint64
}

func (w *wantSums) put(k int, v uint64) { w.slots[k%64].Store(v) }
func (w *wantSums) get(k int) uint64    { return w.slots[k%64].Load() }

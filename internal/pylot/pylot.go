// Package pylot assembles the paper's AV pipeline (Fig. 1) as real
// operators on the ERDOS runtime: camera frames flow through detection,
// tracking, prediction and planning to control commands, with the deadline
// policy pDP running as an operator subgraph that closes the feedback loop
// of Fig. 4. The driving *evaluation* uses the virtual-time model in
// internal/pipeline for reproducibility; this package is the
// wall-clock-executable pipeline — what you would deploy — and is exercised
// by the integration tests and the quickstart-style demos.
//
// Component compute is emulated by busy-waiting for the calibrated model
// runtimes (scaled down by Config.TimeScale so tests run fast); the
// planner, tracker, predictor and controller are the real implementations
// from internal/av.
package pylot

import (
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/av/control"
	"github.com/erdos-go/erdos/internal/av/detection"
	"github.com/erdos-go/erdos/internal/av/planning"
	"github.com/erdos-go/erdos/internal/av/prediction"
	"github.com/erdos-go/erdos/internal/av/tracking"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/policy"
	"github.com/erdos-go/erdos/internal/trace"
)

// CameraFrame is the sensor input: the positions of visible agents plus
// ego state, as a simulator or sensor bridge would produce.
type CameraFrame struct {
	Seq    uint64
	Agents []tracking.Observation
	// EgoSpeed is the vehicle's speed (m/s).
	EgoSpeed float64
}

// Obstacles is the perception module's output.
type Obstacles struct {
	Tracks   []tracking.Track
	Detector string
}

// Predictions is the prediction module's output.
type Predictions struct {
	Trajectories []prediction.Trajectory
	Horizon      time.Duration
}

// Plan is the planning module's output.
type Plan struct {
	Trajectory planning.Trajectory
	Waypoints  []control.Waypoint
	Candidates int
}

// Command is the control module's output.
type Command = control.Command

// Config parameterizes the pipeline.
type Config struct {
	// TimeScale divides every emulated compute time (10 = ten times
	// faster than real time). 0 means 10.
	TimeScale float64
	// Policy computes the end-to-end deadline; nil uses the §7.4
	// stopping-distance policy.
	Policy policy.Policy
	// Deadline is the initial end-to-end deadline.
	Deadline time.Duration
	// TargetSpeed is the cruise speed handed to control.
	TargetSpeed float64
	// Seed drives the emulated runtime distributions.
	Seed int64
	// OnMiss, when non-nil, runs inside the deadline-exception handler of
	// every timestamp deadline in the pipeline (perception, planning), so
	// callers observe DEH activations — chaos tests assert that an outage
	// surfaces as deadline exceptions rather than silent hangs.
	OnMiss func(h *erdos.HandlerContext)
	// Prefix namespaces every operator, stream and deadline label (e.g.
	// "a-" yields "a-perception", "a-camera"), so several pipelines can be
	// built into one process and submitted as tenants of one cluster —
	// operator names must be unique across a cluster's composite graph.
	Prefix string
}

// Handles exposes the pipeline's boundary streams.
type Handles struct {
	Camera   erdos.Stream[CameraFrame]
	Commands erdos.Stream[Command]
	Plans    erdos.Stream[Plan]
	// Deadlines carries pDP's end-to-end allocations (observable for
	// diagnostics and tests).
	Deadlines erdos.Stream[time.Duration]
}

// perceptionState carries the tracker across timestamps.
type perceptionState struct {
	Tracker *tracking.Tracker
	LastObs []tracking.Observation
	Ego     float64
}

func clonePerception(s *perceptionState) *perceptionState {
	// The tracker must be deep-copied: committed versions are read outside
	// the operator's serial execution — checkpointed by the heartbeat loop,
	// handed to DEHs — while the working tracker keeps mutating.
	c := *s
	c.Tracker = s.Tracker.Clone()
	return &c
}

// predState carries the newest obstacles into prediction's watermark
// callback.
type predState struct{ Last Obstacles }

// planState carries the newest predictions into planning's watermark
// callback.
type planState struct{ Last Predictions }

// ctlState carries the newest plan and the PID/pure-pursuit controller into
// control's watermark callback. The controller lives in the store — not in a
// closure — because its PID integrator is operator state: after a failover
// the adopting worker restores it with RestoreAt, so replayed plans land on
// the checkpointed controller instead of a fresh one applying double effect.
type ctlState struct {
	Last Plan
	Ctl  *control.Controller
}

// clone produces an independent copy for the versioned store: the controller
// is copied by value so parallel views never share a PID integrator.
func (s *ctlState) clone() *ctlState {
	c := *s
	if c.Ctl != nil {
		ctl := *c.Ctl
		c.Ctl = &ctl
	}
	return &c
}

func init() {
	// Operator state crosses worker migrations as gob checkpoints
	// (state.Snapshot); register every concrete state type the pipeline
	// commits.
	state.RegisterState(&perceptionState{})
	state.RegisterState(&predState{})
	state.RegisterState(&planState{})
	state.RegisterState(&ctlState{})
}

// Build assembles the graph. Call g.RunLocal (or run it on a cluster)
// afterwards.
func Build(g *erdos.Graph, cfg Config) Handles {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 10
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.NewStoppingDistance()
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 200 * time.Millisecond
	}
	if cfg.TargetSpeed == 0 {
		cfg.TargetSpeed = 12
	}
	// One generator per operator: watermark callbacks of different
	// operators run concurrently on the lattice pool. Distinct streams
	// keep each operator's modeled runtimes deterministic under a seed
	// regardless of how callbacks interleave across operators. Each draw
	// holds its generator's lock: every runtime built from this graph
	// shares these closures, so two instances of one operator can draw at
	// once.
	perceptionRng := trace.New(cfg.Seed)
	predictionRng := trace.New(cfg.Seed + 1)
	var perceptionMu, predictionMu sync.Mutex

	// pn namespaces every graph-visible name under Config.Prefix.
	pn := func(s string) string { return cfg.Prefix + s }

	camera := erdos.IngestStream[CameraFrame](g, pn("camera"))
	obstacles := erdos.AddStream[Obstacles](g, pn("obstacles"))
	predictions := erdos.AddStream[Predictions](g, pn("predictions"))
	plans := erdos.AddStream[Plan](g, pn("plans"))
	commands := erdos.AddStream[Command](g, pn("commands"))
	envInfo := erdos.AddStream[policy.Environment](g, pn("env-info"))
	deadlines := erdos.AddStream[time.Duration](g, pn("deadlines"))

	dyn := erdos.DynamicDeadline(g, deadlines, cfg.Deadline)
	scale := cfg.TimeScale
	var onMiss erdos.HandlerCallback
	if cfg.OnMiss != nil {
		onMiss = cfg.OnMiss
	}

	// Perception: detection (emulated runtime, budget-driven model
	// choice) + the real SORT-style tracker.
	perception := g.Operator(pn("perception"))
	pOut := erdos.Output(perception, obstacles)
	envOut := erdos.Output(perception, envInfo)
	erdos.WithState(perception, &perceptionState{Tracker: tracking.NewTracker()}, clonePerception)
	erdos.Input(perception, camera, func(ctx *erdos.Context, t erdos.Timestamp, f CameraFrame) {
		st := erdos.StateOf[*perceptionState](ctx)
		st.LastObs = f.Agents
		st.Ego = f.EgoSpeed
	})
	perception.OnWatermark(func(ctx *erdos.Context) {
		st := erdos.StateOf[*perceptionState](ctx)
		rel, _, ok := ctx.Deadline()
		det := detection.EfficientDet[3]
		if ok {
			if m, fits := detection.BestWithin(rel * 30 / 100); fits {
				det = m
			} else {
				det = detection.EfficientDet[0]
			}
		}
		perceptionMu.Lock()
		detRuntime := det.Runtime(perceptionRng, len(st.LastObs))
		perceptionMu.Unlock()
		emulate(detRuntime, scale, ctx)
		tracks := st.Tracker.Update(ctx.Timestamp.L, 0.1, st.LastObs)
		perceptionMu.Lock()
		sortRuntime := tracking.SORT.Runtime(perceptionRng, len(tracks))
		perceptionMu.Unlock()
		emulate(sortRuntime, scale, ctx)
		out := Obstacles{Detector: det.Name}
		nearest, hasAgent := 0.0, false
		for _, tr := range tracks {
			out.Tracks = append(out.Tracks, *tr)
			if !hasAgent || tr.X < nearest {
				nearest, hasAgent = tr.X, true
			}
		}
		_ = ctx.Send(pOut, ctx.Timestamp, out)
		_ = ctx.Send(envOut, ctx.Timestamp, policy.Environment{
			Speed:         st.Ego,
			AgentDistance: nearest,
			HasAgent:      hasAgent,
			CurrentResponse: func() time.Duration {
				if ok {
					return rel
				}
				return cfg.Deadline
			}(),
		})
	})
	perception.TimestampDeadline(pn("perception"), dyn, erdos.Continue, onMiss)
	perception.Build()

	// pDP: the deadline policy as an operator subgraph (Fig. 4): consumes
	// the environment info perception shares, publishes allocations.
	pdp := g.Operator(pn("pDP"))
	dOut := erdos.Output(pdp, deadlines)
	pol := cfg.Policy
	erdos.Input(pdp, envInfo, func(ctx *erdos.Context, t erdos.Timestamp, env policy.Environment) {
		_ = ctx.Send(dOut, t, pol.Decide(env))
	})
	pdp.Build()

	// Prediction: the real constant-velocity predictor with the emulated
	// lightweight model runtime. The newest obstacles live in operator
	// state (not a closure) so they checkpoint and restore with the
	// operator on migration.
	predict := g.Operator(pn("prediction"))
	prOut := erdos.Output(predict, predictions)
	erdos.WithState(predict, &predState{}, func(s *predState) *predState { c := *s; return &c })
	erdos.Input(predict, obstacles, func(ctx *erdos.Context, t erdos.Timestamp, o Obstacles) {
		erdos.StateOf[*predState](ctx).Last = o
	})
	predict.OnWatermark(func(ctx *erdos.Context) {
		last := erdos.StateOf[*predState](ctx).Last
		horizon := prediction.HorizonForSpeed(cfg.TargetSpeed)
		predictionMu.Lock()
		predRuntime := prediction.Linear.Runtime(predictionRng, horizon, len(last.Tracks))
		predictionMu.Unlock()
		emulate(predRuntime, scale, ctx)
		tracks := make([]*tracking.Track, len(last.Tracks))
		for i := range last.Tracks {
			tracks[i] = &last.Tracks[i]
		}
		_ = ctx.Send(prOut, ctx.Timestamp, Predictions{
			Trajectories: prediction.Predict(tracks, horizon, 250*time.Millisecond),
			Horizon:      horizon,
		})
	})
	predict.Build()

	// Planning: the real anytime FOT planner consuming its remaining
	// allocation (§5.3).
	planOp := g.Operator(pn("planning"))
	plOut := erdos.Output(planOp, plans)
	erdos.WithState(planOp, &planState{}, func(s *planState) *planState { c := *s; return &c })
	erdos.Input(planOp, predictions, func(ctx *erdos.Context, t erdos.Timestamp, p Predictions) {
		erdos.StateOf[*planState](ctx).Last = p
	})
	planOp.OnWatermark(func(ctx *erdos.Context) {
		lastPred := erdos.StateOf[*planState](ctx).Last
		var obs []planning.Obstacle
		for _, tr := range lastPred.Trajectories {
			if len(tr.Waypoints) > 0 {
				w := tr.Waypoints[0]
				obs = append(obs, planning.Obstacle{X: w.X, Y: w.Y, Radius: 1.0})
			}
		}
		budget := 40 * time.Millisecond
		if rel, _, ok := ctx.Deadline(); ok {
			budget = rel * 53 / 100
		}
		st := planning.VehicleState{Speed: cfg.TargetSpeed}
		trj, ok, used := planning.PlanWithBudget(planning.DefaultConfig(), st, obs, budget, 2)
		emulate(used, scale, ctx)
		if !ok {
			trj = planning.Trajectory{Target: 0, Duration: 2}
		}
		plan := Plan{Trajectory: trj, Candidates: int(used / planning.PerCandidateCost)}
		for s := 0.25; s <= 1.0; s += 0.25 {
			plan.Waypoints = append(plan.Waypoints, control.Waypoint{
				X: cfg.TargetSpeed * trj.Duration * s,
				Y: trj.Target * s,
			})
		}
		_ = ctx.Send(plOut, ctx.Timestamp, plan)
	})
	planOp.TimestampDeadline(pn("planning"), dyn, erdos.Continue, onMiss)
	planOp.Build()

	// Control: the real PID + pure-pursuit controller at the end of the
	// chain. Commands are emitted from the watermark callback, not per
	// data message: the runtime drops regressed watermarks, so a replayed
	// plan after a failover produces no second command for a timestamp the
	// controller already acted on (exactly-once effects at watermark
	// granularity).
	ctl := g.Operator(pn("control"))
	cOut := erdos.Output(ctl, commands)
	erdos.WithState(ctl, &ctlState{Ctl: control.NewController()}, (*ctlState).clone)
	erdos.Input(ctl, plans, func(ctx *erdos.Context, t erdos.Timestamp, p Plan) {
		erdos.StateOf[*ctlState](ctx).Last = p
	})
	ctl.OnWatermark(func(ctx *erdos.Context) {
		st := erdos.StateOf[*ctlState](ctx)
		emulate(control.Runtime, scale, ctx)
		if st.Ctl == nil {
			// A checkpoint decoded on an adopting worker may omit the
			// controller (gob drops what it cannot express); degrade to a
			// fresh controller rather than dropping the command.
			st.Ctl = control.NewController()
		}
		cmd := st.Ctl.Step(cfg.TargetSpeed*0.95, cfg.TargetSpeed, st.Last.Waypoints, 100*time.Millisecond)
		_ = ctx.Send(cOut, ctx.Timestamp, cmd)
	})
	ctl.Build()

	// The perception→prediction→planning chain dominates the critical path
	// of every frame; co-locating it keeps each timestamp's cascade of
	// callbacks on one lattice shard (and, on a cluster, one worker) so
	// intermediate payloads never cross a cache line or a socket.
	g.Affinity(pn("perception"), pn("prediction"), pn("planning"))

	return Handles{Camera: camera, Commands: commands, Plans: plans, Deadlines: deadlines}
}

// emulate busy-waits for the modeled runtime scaled down, respecting
// aborts so DEHs can take over promptly.
func emulate(d time.Duration, scale float64, ctx *erdos.Context) {
	d = time.Duration(float64(d) / scale)
	deadline := time.Now().Add(d) //erdos:allow wallclock the spin IS the modeled compute; it burns real CPU time, it does not schedule anything
	for time.Now().Before(deadline) {
		if ctx != nil && ctx.Aborted() {
			return
		}
	}
}

package pylot

import (
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/av/control"
	"github.com/erdos-go/erdos/internal/av/tracking"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// drive feeds frames of an agent approaching from ahead and returns the
// collected outputs.
func drive(t *testing.T, frames int, startDist, closing float64) (*erdos.Collector[Command], *erdos.Collector[Plan], *erdos.Collector[time.Duration]) {
	t.Helper()
	g := erdos.NewGraph()
	h := Build(g, Config{TimeScale: 50, TargetSpeed: 12, Seed: 7})
	rt, err := g.RunLocal(erdos.WithThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	cmds, err := erdos.Collect(rt, h.Commands)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := erdos.Collect(rt, h.Plans)
	if err != nil {
		t.Fatal(err)
	}
	dls, err := erdos.Collect(rt, h.Deadlines)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := erdos.Writer(rt, h.Camera)
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= frames; f++ {
		ts := erdos.T(uint64(f))
		dist := startDist - closing*float64(f-1)
		frame := CameraFrame{Seq: uint64(f), EgoSpeed: 12}
		if dist > 0 {
			frame.Agents = []tracking.Observation{{X: dist, Y: 0}}
		}
		if err := cam.Send(ts, frame); err != nil {
			t.Fatal(err)
		}
		if err := cam.SendWatermark(ts); err != nil {
			t.Fatal(err)
		}
	}
	rt.Quiesce()
	return cmds, plans, dls
}

func TestPipelineProducesCommandsEndToEnd(t *testing.T) {
	cmds, plans, _ := drive(t, 6, 80, 2)
	if cmds.Len() == 0 {
		t.Fatal("no control commands produced")
	}
	if plans.Len() != 6 {
		t.Fatalf("plans = %d, want one per frame", plans.Len())
	}
	for _, p := range plans.Data() {
		if p.Value.Trajectory.Duration <= 0 {
			t.Fatalf("degenerate plan: %+v", p.Value)
		}
		if len(p.Value.Waypoints) == 0 {
			t.Fatal("plan without waypoints")
		}
	}
}

func TestDeadlineTightensAsAgentCloses(t *testing.T) {
	_, _, dls := drive(t, 10, 90, 9) // agent closes from 90 m to ~9 m
	data := dls.Data()
	if len(data) < 5 {
		t.Fatalf("too few policy decisions: %d", len(data))
	}
	first := data[0].Value
	last := data[len(data)-1].Value
	if last >= first {
		t.Fatalf("pDP never tightened: first %v, last %v", first, last)
	}
	if last > 200*time.Millisecond {
		t.Fatalf("final allocation %v too lax with an agent ~9 m ahead", last)
	}
}

func TestClearRoadKeepsAccurateConfiguration(t *testing.T) {
	_, _, dls := drive(t, 5, 500, 0) // agent far beyond the envelope
	for _, d := range dls.Data() {
		if d.Value < 400*time.Millisecond {
			t.Fatalf("policy tightened to %v on a clear road", d.Value)
		}
	}
}

func TestPlannerSwervesAroundPredictedObstacle(t *testing.T) {
	_, plans, _ := drive(t, 6, 25, 1) // stationary-ish obstacle in lane, close
	data := plans.Data()
	swerved := false
	for _, p := range data {
		if p.Value.Trajectory.Target > 0.9 || p.Value.Trajectory.Target < -0.9 {
			swerved = true
		}
	}
	if !swerved {
		t.Fatal("planner never planned around the in-lane obstacle")
	}
}

// TestControlCheckpointCarriesPIDIntegrator checkpoints control's state
// after the PID has accumulated error and restores it into a fresh store:
// the restored controller must answer the next error exactly as the live
// one does, integrator and derivative memory included.
func TestControlCheckpointCarriesPIDIntegrator(t *testing.T) {
	live := &ctlState{Ctl: control.NewController()}
	for i := 0; i < 3; i++ {
		live.Ctl.Speed.Update(1, 0.1)
	}
	src := state.Typed(&ctlState{Ctl: control.NewController()}, (*ctlState).clone)
	src.Commit(timestamp.New(3), live.clone())
	cp, ok := state.Snapshot(src)
	if !ok || !cp.HasState {
		t.Fatalf("snapshot: ok=%v HasState=%v", ok, cp.HasState)
	}
	dst := state.Typed(&ctlState{Ctl: control.NewController()}, (*ctlState).clone)
	if _, err := state.RestoreAt(dst, cp, cp.L); err != nil {
		t.Fatal(err)
	}
	v, _, _ := dst.Last()
	restored := v.(*ctlState)
	want := live.Ctl.Speed.Update(0.5, 0.1)
	if got := restored.Ctl.Speed.Update(0.5, 0.1); got != want {
		t.Fatalf("restored PID gives %v, live gives %v", got, want)
	}
}

// TestTwoRuntimesFromOneBuildDrawSafely runs two runtimes from one Build
// at once, the way simulated hosts in one process (and a failed-over
// operator and its adopter) share one graph's closures. Each is fed 20
// frames concurrently; under -race any generator draw that is not safe
// for concurrent instances reports a data race.
func TestTwoRuntimesFromOneBuildDrawSafely(t *testing.T) {
	const frames = 20
	g := erdos.NewGraph()
	h := Build(g, Config{TimeScale: 50, TargetSpeed: 12, Seed: 7})
	type instance struct {
		rt   *erdos.Runtime
		cmds *erdos.Collector[Command]
		cam  stream.WriteStream[CameraFrame]
	}
	var insts []instance
	for i := 0; i < 2; i++ {
		rt, err := g.RunLocal(erdos.WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
		cmds, err := erdos.Collect(rt, h.Commands)
		if err != nil {
			t.Fatal(err)
		}
		cam, err := erdos.Writer(rt, h.Camera)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{rt, cmds, cam})
	}
	errs := make(chan error, len(insts))
	for _, in := range insts {
		go func(cam stream.WriteStream[CameraFrame]) {
			for f := 1; f <= frames; f++ {
				ts := erdos.T(uint64(f))
				frame := CameraFrame{Seq: uint64(f), EgoSpeed: 12,
					Agents: []tracking.Observation{{X: 80 - 2*float64(f), Y: 0}}}
				if err := cam.Send(ts, frame); err != nil {
					errs <- err
					return
				}
				if err := cam.SendWatermark(ts); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(in.cam)
	}
	for range insts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range insts {
		in.rt.Quiesce()
		if in.cmds.Len() == 0 {
			t.Fatalf("runtime %d produced no commands", i)
		}
	}
}

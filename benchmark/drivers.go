package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/av/control"
	"github.com/erdos-go/erdos/internal/av/planning"
	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/inproc"
	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/lattice"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
	"github.com/erdos-go/erdos/internal/pylot"
)

// The drivers call one layer's public API directly, with nothing else
// running, so a layer's own cost can be told from what the cluster adds
// around it. They send through comm.Transport.SendWithHint only.

// recordedPlan is the planning output the pylot workloads put on the
// outbound hop: a trajectory and four waypoints.
func recordedPlan() pylot.Plan {
	p := pylot.Plan{
		Trajectory: planning.Trajectory{Target: -0.75, Duration: 2, MaxJerk: 1.4, Cost: 3.2, Feasible: true},
		Candidates: 24,
	}
	for s := 0.25; s <= 1.0; s += 0.25 {
		p.Waypoints = append(p.Waypoints, control.Waypoint{X: 24 * s, Y: -0.75 * s})
	}
	return p
}

// pingPong bounces the recorded plan between two transports over the named
// backend for about dur and returns the median round trip (us) and the heap
// allocations per message. slack is the deadline slack each send declares:
// zero asks for a flush on queue drain, anything else lets the coalescer
// hold the frame, and the difference between the two is the coalesce hold.
func pingPong(scheme, shmDir string, slack, dur time.Duration) (rttUs, allocsPerMsg float64, err error) {
	var opts []comm.Option
	switch scheme {
	case "shm":
		b := shm.New()
		b.Dir = shmDir
		opts = append(opts, comm.WithBackend(b, ""))
	case "inproc":
		opts = append(opts, comm.WithBackend(inproc.New(), ""))
	}
	hint := func() comm.FlushHint {
		if slack == 0 {
			return comm.FlushHint{}
		}
		return comm.FlushHint{FlushBy: time.Now().Add(slack)}
	}
	var echo atomic.Pointer[comm.Transport]
	a, err := comm.Listen("drv-echo", "127.0.0.1:0", func(_ string, id stream.ID, m message.Message) {
		_ = echo.Load().SendWithHint("drv-cli", id, m, hint())
	}, opts...)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	echo.Store(a)
	back := make(chan struct{}, 1)
	c, err := comm.Listen("drv-cli", "127.0.0.1:0", func(string, stream.ID, message.Message) {
		back <- struct{}{}
	}, opts...)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	addr := a.Addr()
	if scheme != "tcp" {
		addr = scheme + "://" + a.AddrOf(scheme)
	}
	if err := c.Dial(addr); err != nil {
		return 0, 0, err
	}
	if got := c.PeerSchemes()["drv-echo"]; got != scheme {
		return 0, 0, fmt.Errorf("driver link rides %q, want %q", got, scheme)
	}
	plan := recordedPlan()
	id := stream.NewID()
	// One watchdog timer, re-armed per trip, so waiting allocates nothing.
	watchdog := time.NewTimer(drainTimeout)
	defer watchdog.Stop()
	trip := func(i int) error {
		if err := c.SendWithHint("drv-echo", id, message.Data(timestamp.New(uint64(i+1)), plan), hint()); err != nil {
			return err
		}
		watchdog.Reset(drainTimeout)
		select {
		case <-back:
			return nil
		case <-watchdog.C:
			return fmt.Errorf("%s ping-pong: no echo for message %d", scheme, i)
		}
	}
	n := 0
	for ; n < 20; n++ { // warm the link, the pools and the coalescer
		if err := trip(n); err != nil {
			return 0, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rtts []float64
	for stop := time.Now().Add(dur); time.Now().Before(stop) || len(rtts) < 10; n++ {
		t0 := time.Now()
		if err := trip(n); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, us(time.Since(t0)))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(rtts)
	return percentile(rtts, 50), float64(ms1.Mallocs-ms0.Mallocs) / float64(2*len(rtts)), nil
}

// latticeDispatch is the median time (ns) from submitting a callback to an
// idle lattice to the callback starting.
func latticeDispatch(threads int, dur time.Duration) float64 {
	l := lattice.New(threads)
	defer l.Stop()
	q := l.NewOpQueue(lattice.ModeSequential)
	started := make(chan time.Time, 1)
	var lat []float64
	i := uint64(0)
	for stop := time.Now().Add(dur); time.Now().Before(stop) || len(lat) < 100; {
		i++
		t0 := time.Now()
		l.SubmitDeadline(q, lattice.KindMessage, timestamp.New(i), lattice.NoDeadline, func() { started <- time.Now() })
		lat = append(lat, float64((<-started).Sub(t0)))
		l.Quiesce()
	}
	sort.Float64s(lat)
	return percentile(lat, 50)
}

// latticeSubmitExecute is the mean cost (ns) of one submit-and-run when
// eight operator queues are kept saturated with empty callbacks.
func latticeSubmitExecute(threads int, dur time.Duration) float64 {
	l := lattice.New(threads)
	defer l.Stop()
	const queues, batch = 8, 8192
	qs := make([]*lattice.OpQueue, queues)
	for i := range qs {
		qs[i] = l.NewOpQueue(lattice.ModeParallelMessages)
	}
	var perOp []float64
	i := uint64(0)
	for stop := time.Now().Add(dur); time.Now().Before(stop) || len(perOp) < 3; {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			i++
			l.SubmitDeadline(qs[i%queues], lattice.KindMessage, timestamp.New(i), lattice.NoDeadline, func() {})
		}
		l.Quiesce()
		perOp = append(perOp, float64(time.Since(t0))/batch)
	}
	sort.Float64s(perOp)
	return percentile(perOp, 50)
}

// runDrivers fills in the driver metrics, spending about budget in total.
func runDrivers(m map[string]float64, shmRoot string, threads int, budget time.Duration) error {
	dir, err := os.MkdirTemp(shmRoot, "d")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	each := budget / 7
	const slack = 20 * time.Millisecond
	for _, d := range []struct {
		scheme      string
		slack       time.Duration
		rtt, allocs string
	}{
		{"tcp", 0, "comm.tcp.rtt_us", "comm.tcp.allocs_per_msg"},
		{"shm", 0, "comm.shm.rtt_us", "comm.shm.allocs_per_msg"},
		{"inproc", 0, "comm.inproc.rtt_us", ""},
		{"tcp", slack, "comm.tcp.rtt_slack_us", ""},
		{"shm", slack, "comm.shm.rtt_slack_us", ""},
	} {
		rtt, allocs, err := pingPong(d.scheme, dir, d.slack, each)
		if err != nil {
			return err
		}
		m[d.rtt] = rtt
		if d.allocs != "" {
			m[d.allocs] = allocs
		}
	}
	m["lattice.dispatch_ns"] = latticeDispatch(threads, each)
	m["lattice.submit_execute_ns"] = latticeSubmitExecute(threads, each)
	return nil
}

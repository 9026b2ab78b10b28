package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/core/cluster"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/message"
)

const (
	// warmFrames closed-loop frames per lane fill pools, grow buffers and
	// settle connections before anything is timed; they are part of set-up.
	warmFrames = 50
	// spinWindow is how long before a due time the generator stops sleeping
	// and spins instead: an idle Go process wakes a sleeper up to a
	// millisecond late (netpoll waits in whole milliseconds), which at 100 Hz
	// would be most of a same-host response.
	spinWindow = 1200 * time.Microsecond
	// drainTimeout bounds the wait for outstanding frames; a frame still
	// missing after it is counted lost.
	drainTimeout = 3 * time.Second
)

// frameRec is what the generator and the extract callback record for one
// frame, as nanoseconds since the session's epoch (0 = not yet).
type frameRec struct {
	due, injStart, injEnd int64
	done                  int64
	parts                 uint32 // bit i set: part i of the result has arrived
	wrong                 bool
}

// laneRun is a lane attached to a booted cluster.
type laneRun struct {
	*lane
	idx     int
	inject  *cluster.Node
	extract *cluster.Node

	mu        sync.Mutex
	recs      []frameRec
	completed int // frames 0..completed-1 have every result
	outOfSeq  int // results that arrived for a frame other than the oldest open one's successors
	dup       int
	// doneCh is signalled (never blocking) whenever a frame completes.
	doneCh chan struct{}
}

// session drives one booted cluster from a single generator goroutine.
type session struct {
	rig    *rig
	lanes  []*laneRun
	epoch  time.Time
	tracer *tracer
	// spun is the time the generator spent spinning up to due times: CPU
	// the benchmark burned, not the cluster, so it is taken off the CPU
	// account.
	spun time.Duration
	// depthReady/depthPending are the largest lattice depths any worker
	// reported when sampled at an injection.
	depthReady, depthPending int64
}

func (s *session) now() int64 { return int64(time.Since(s.epoch)) }

// attach subscribes to every lane's result stream and resolves the workers
// frames enter and leave on.
func attach(r *rig, tr *tracer) (*session, error) {
	s := &session{rig: r, epoch: time.Now(), tracer: tr}
	if tr != nil {
		s.epoch = tr.epoch
	}
	for i, l := range r.job.lanes {
		lr := &laneRun{lane: l, idx: i, doneCh: make(chan struct{}, 1)}
		var err error
		if lr.inject, err = r.nodeFor(l, l.injectOn); err != nil {
			return nil, err
		}
		if lr.extract, err = r.nodeFor(l, l.extractOn); err != nil {
			return nil, err
		}
		if err := lr.extract.Worker.Subscribe(l.out, func(m message.Message) { s.onResult(lr, m) }); err != nil {
			return nil, err
		}
		s.lanes = append(s.lanes, lr)
	}
	return s, nil
}

// onResult runs on the extract worker's callback goroutine.
func (s *session) onResult(lr *laneRun, m message.Message) {
	if !m.IsData() {
		return
	}
	now := s.now()
	k := int(m.Timestamp.L) - 1
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if k < 0 || k >= len(lr.recs) {
		lr.outOfSeq++
		return
	}
	rec := &lr.recs[k]
	part, ok := lr.check(k, m.Payload)
	if !ok {
		rec.wrong = true
	}
	if rec.parts&(1<<part) != 0 {
		lr.dup++
		return
	}
	rec.parts |= 1 << part
	if rec.parts != 1<<lr.resultsPerFrame-1 {
		return
	}
	if k != lr.completed {
		lr.outOfSeq++
	}
	rec.done = now
	if k >= lr.completed {
		lr.completed = k + 1
	}
	select {
	case lr.doneCh <- struct{}{}:
	default:
	}
}

func (lr *laneRun) outstanding() int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return len(lr.recs) - lr.completed
}

// waitBelow blocks until fewer than n frames are outstanding or the drain
// timeout passes.
func (lr *laneRun) waitBelow(n int) bool {
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for lr.outstanding() >= n {
		select {
		case <-lr.doneCh:
		case <-deadline.C:
			return lr.outstanding() < n
		}
	}
	return true
}

// injectFrame sends the lane's next frame, due at the given instant.
func (s *session) injectFrame(lr *laneRun, due int64) error {
	lr.mu.Lock()
	k := len(lr.recs)
	lr.recs = append(lr.recs, frameRec{due: due})
	lr.mu.Unlock()
	payload := lr.payload(k)
	if s.tracer != nil {
		s.tracer.begin(lr.idx, k)
	}
	ts := erdos.T(uint64(k + 1))
	w := lr.inject.Worker
	t0 := s.now()
	err := w.Inject(lr.in, message.Data(ts, payload))
	if err == nil {
		err = w.Inject(lr.in, message.Watermark(ts))
	}
	t1 := s.now()
	lr.mu.Lock()
	lr.recs[k].injStart, lr.recs[k].injEnd = t0, t1
	lr.mu.Unlock()
	for _, n := range s.rig.nodes {
		c := n.Worker.Congestion()
		if c.Ready > s.depthReady {
			s.depthReady = c.Ready
		}
		if c.Pending > s.depthPending {
			s.depthPending = c.Pending
		}
	}
	if err != nil {
		return fmt.Errorf("lane %q frame %d: %w", lr.name, k, err)
	}
	return nil
}

// warm pushes warmFrames through every lane, one in flight.
func (s *session) warm() error {
	for i := 0; i < warmFrames; i++ {
		for _, lr := range s.lanes {
			if err := s.injectFrame(lr, s.now()); err != nil {
				return err
			}
			if !lr.waitBelow(1) {
				return fmt.Errorf("lane %q: warm-up frame %d never completed", lr.name, i)
			}
		}
	}
	return nil
}

// phase is one stretch of load: the frames each lane injected during it and
// how long it lasted.
type phase struct {
	first, end []int // per lane: recs[first:end]
	start      int64
	elapsed    time.Duration // start -> last completion
}

// run drives every lane for dur. Open-loop lanes follow their schedule no
// matter how the cluster keeps up; closed-loop lanes keep their window
// full. gated limits every lane to one frame in flight, which is what lets
// the traced pass attribute every span to a frame.
func (s *session) run(dur time.Duration, gated bool) (phase, error) {
	p := phase{start: s.now() + int64(2*time.Millisecond)}
	stop := p.start + int64(dur)
	next := make([]int64, len(s.lanes))
	for i, lr := range s.lanes {
		p.first = append(p.first, len(lr.recs))
		next[i] = p.start + int64(lr.offset)
	}
	closed := s.lanes[0].period == 0
	for {
		// Closed loop: the one lane is due whenever its window has room.
		if closed {
			lr := s.lanes[0]
			window := lr.inflight
			if gated {
				window = 1
			}
			if !lr.waitBelow(window) {
				break
			}
			now := s.now()
			if now >= stop {
				break
			}
			if now < p.start {
				time.Sleep(time.Duration(p.start - now))
				now = s.now()
			}
			if err := s.injectFrame(lr, now); err != nil {
				return p, err
			}
			continue
		}
		// Open loop: the lane with the earliest due time goes next.
		li := 0
		for i := range next {
			if next[i] < next[li] {
				li = i
			}
		}
		due := next[li]
		if due >= stop {
			break
		}
		s.waitUntil(due)
		lr := s.lanes[li]
		if gated && !lr.waitBelow(1) {
			break
		}
		if err := s.injectFrame(lr, due); err != nil {
			return p, err
		}
		next[li] += int64(lr.period)
	}
	last := p.start
	for _, lr := range s.lanes {
		lr.waitBelow(1)
		lr.mu.Lock()
		p.end = append(p.end, len(lr.recs))
		for _, rec := range lr.recs[p.first[lr.idx]:] {
			if rec.done > last {
				last = rec.done
			}
		}
		lr.mu.Unlock()
	}
	p.elapsed = time.Duration(last - p.start)
	return p, nil
}

// waitUntil returns at the due instant: it sleeps to within spinWindow of
// it and spins the rest.
func (s *session) waitUntil(due int64) {
	if wait := due - s.now() - int64(spinWindow); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	t0 := s.now()
	t := t0
	for t < due {
		t = s.now()
	}
	s.spun += time.Duration(t - t0)
}

// outcome is the end-to-end account of one phase.
type outcome struct {
	attempted int
	lost      int
	wrong     int
	late      int // correct but over the latency limit
	// responses (ms) of every frame that completed, timed from its due
	// time; lateness (us) is how far behind schedule each injection began.
	responses []float64
	lateness  []float64
	elapsed   time.Duration
}

func (o outcome) failed() int { return o.lost + o.wrong }

// account folds the frames of p into an outcome. Duplicates and
// out-of-order results are kept per lane for the whole session and checked
// at the end.
func (s *session) account(p phase) outcome {
	o := outcome{elapsed: p.elapsed}
	limit := ms(s.rig.job.limit)
	for _, lr := range s.lanes {
		lr.mu.Lock()
		for _, rec := range lr.recs[p.first[lr.idx]:p.end[lr.idx]] {
			o.attempted++
			o.lateness = append(o.lateness, float64(rec.injStart-rec.due)/1e3)
			switch {
			case rec.done == 0:
				o.lost++
				continue
			case rec.wrong:
				o.wrong++
				continue
			}
			resp := float64(rec.done-rec.due) / 1e6
			o.responses = append(o.responses, resp)
			if limit > 0 && resp > limit {
				o.late++
			}
		}
		lr.mu.Unlock()
	}
	return o
}

// orderViolations reports duplicated and out-of-order results over the
// whole session.
func (s *session) orderViolations() (dup, outOfSeq int) {
	for _, lr := range s.lanes {
		lr.mu.Lock()
		dup += lr.dup
		outOfSeq += lr.outOfSeq
		lr.mu.Unlock()
	}
	return dup, outOfSeq
}

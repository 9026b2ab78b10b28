package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one operator callback seen from outside the runtime:
// worker.Options.WrapCallback is called when the callback is submitted to
// the lattice and the function it returns runs when the lattice dispatches
// it, which gives queue wait (submit->start) and run time (start->end).
type span struct {
	lane, op, frame    int
	submit, start, end int64 // ns since the session epoch
}

// opRef places an operator in a lane. critical operators are on the frame's
// blocking path, the others (pDP) only have their busy time reported; in and
// out mark the first and last operators a frame reaches, which is how a wait
// for an inbound message is told from a wait for an outbound one.
type opRef struct {
	lane, op          int
	critical, in, out bool
}

// tracer records spans in memory. It relies on the traced pass keeping one
// frame in flight per lane: a callback submitted between inject(f) and
// result(f) of a lane belongs to f.
type tracer struct {
	epoch time.Time
	ops   map[string]opRef // by operator name
	lanes [][]opRef        // by lane, then by index into lane.ops
	cur   []atomic.Int64   // per lane: frame being injected or in flight

	mu    sync.Mutex
	spans []span
}

func newTracer(j *job) *tracer {
	t := &tracer{epoch: time.Now(), ops: make(map[string]opRef), cur: make([]atomic.Int64, len(j.lanes))}
	for li, l := range j.lanes {
		refs := make([]opRef, len(l.ops))
		for oi, op := range l.ops {
			refs[oi] = opRef{lane: li, op: oi, critical: !contains(l.sideOps, op),
				in: contains(l.inOps, op), out: contains(l.outOps, op)}
			t.ops[op] = refs[oi]
		}
		t.lanes = append(t.lanes, refs)
	}
	return t
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(lane, frame int) { t.cur[lane].Store(int64(frame)) }

// wrap is the WrapCallback of every worker in a traced cluster.
func (t *tracer) wrap(op string, f func()) func() {
	ref, ok := t.ops[op]
	if !ok {
		return f
	}
	sp := span{lane: ref.lane, op: ref.op, frame: int(t.cur[ref.lane].Load()), submit: t.now()}
	return func() {
		sp.start = t.now()
		f()
		sp.end = t.now()
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// byFrame groups the recorded spans of one lane by frame.
func (t *tracer) byFrame(lane int) map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]span)
	for _, sp := range t.spans {
		if sp.lane == lane {
			out[sp.frame] = append(out[sp.frame], sp)
		}
	}
	return out
}

// breakdown splits one frame's response (due -> last result) into named
// parts, all in microseconds. The parts other than residual are the spans
// the benchmark can see; residual is response minus their sum.
type breakdown struct {
	response  float64
	genLate   float64 // due -> inject start
	inject    float64 // the two Worker.Inject calls
	hopIn     float64 // nothing running or queued; ended by a first-stage operator's submit
	hopOut    float64 // nothing running or queued; ended by a last-stage operator's submit
	queueWait float64 // a callback of the frame is queued and none is running
	busy      float64 // at least one critical callback of the frame is running
	residual  float64
	opBusy    []float64 // per lane.ops entry: total callback run time
}

func (b breakdown) spanSum() float64 {
	return b.genLate + b.inject + b.hopIn + b.hopOut + b.queueWait + b.busy
}

// decompose sweeps the interval inject-end -> done over the frame's spans.
// At every instant the frame is doing exactly one thing, taken in this
// order: running a critical callback, waiting in a lattice queue, or
// waiting for a message; a wait for a message is charged to the hop whose
// arrival ended it (the next callback submitted). What is left over — a
// wait that ended in neither a first- nor a last-stage operator — is the
// residual no span covers.
func decompose(refs []opRef, rec frameRec, spans []span) breakdown {
	b := breakdown{
		response: float64(rec.done-rec.due) / 1e3,
		genLate:  float64(rec.injStart-rec.due) / 1e3,
		inject:   float64(rec.injEnd-rec.injStart) / 1e3,
		opBusy:   make([]float64, len(refs)),
	}
	lo, hi := rec.injEnd, rec.done
	clip := func(v int64) int64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	var crit []span
	cuts := []int64{lo, hi}
	for _, sp := range spans {
		// A side operator's run time counts whole, whenever it ran: across
		// hosts pDP's input is held by the coalescer and it runs after the
		// command has left, which makes it no cheaper.
		if !refs[sp.op].critical {
			b.opBusy[sp.op] += float64(sp.end-sp.start) / 1e3
			continue
		}
		if sp.start < hi {
			end := sp.end
			if end > hi {
				end = hi
			}
			b.opBusy[sp.op] += float64(end-sp.start) / 1e3
		}
		if sp.submit >= hi {
			continue
		}
		sp.submit, sp.start, sp.end = clip(sp.submit), clip(sp.start), clip(sp.end)
		crit = append(crit, sp)
		cuts = append(cuts, sp.submit, sp.start, sp.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	sort.Slice(crit, func(i, j int) bool { return crit[i].submit < crit[j].submit })
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		if to == from {
			continue
		}
		d := float64(to-from) / 1e3
		running, queued := false, false
		next := -1 // op of the first span submitted at or after `to`
		for _, sp := range crit {
			if sp.start <= from && to <= sp.end {
				running = true
			}
			if sp.submit <= from && to <= sp.start {
				queued = true
			}
			if next < 0 && sp.submit >= to {
				next = sp.op
			}
		}
		switch {
		case running:
			b.busy += d
		case queued:
			b.queueWait += d
		case next >= 0 && refs[next].in:
			b.hopIn += d
		case next >= 0 && refs[next].out:
			b.hopOut += d
		default:
			b.residual += d
		}
	}
	return b
}

package main

import (
	"errors"
	"runtime"
	"time"
)

// perLayerPasses is -trace 1. The measuring time is split between an
// untraced pass under the real load (counters), an untraced pass with one
// frame in flight per lane (the base the tracing overhead is measured
// against), a traced pass with one frame in flight per lane (spans), and
// the drivers.
func (b *bench) perLayerPasses() error {
	total := time.Duration(b.cfg.seconds * float64(time.Second))
	gatedP50, err := b.counterPass(total*35/100, total*20/100)
	if err != nil {
		return err
	}
	if err := b.tracedPass(total*30/100, gatedP50); err != nil {
		return err
	}
	if err := runDrivers(b.values, b.cfg.shmRoot, b.threads, total*15/100); err != nil {
		return err
	}
	b.values["go.goroutines_end"] = float64(runtime.NumGoroutine())
	return nil
}

// counterPass measures the real load untraced and reads every public
// counter around it, then runs the gated load on the same cluster and
// returns its median response (ms).
func (b *bench) counterPass(dur, gatedDur time.Duration) (float64, error) {
	s, _, err := b.setUp(b.cfg.seed, false)
	if err != nil {
		return 0, err
	}
	defer s.rig.close()
	m, err := b.measure(s, dur)
	if err != nil {
		return 0, err
	}
	o, before, after := m.outcome, m.before, m.after
	frames := float64(o.attempted)
	per := func(after, before uint64) float64 { return float64(after-before) / frames }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	v := b.values
	v["comm.frames_per_frame"] = per(after.linkFrames, before.linkFrames)
	v["comm.flushes_per_frame"] = per(after.flushes, before.flushes)
	v["comm.coalesced_ratio"] = ratio(after.coalesced-before.coalesced, after.linkFrames-before.linkFrames)
	v["comm.late_flush_ratio"] = ratio(after.lateFlushes-before.lateFlushes, after.flushes-before.flushes)
	v["comm.hold_ns"] = after.holdNs
	v["comm.relay_envelopes_per_frame"] = per(after.relaySent, before.relaySent)
	v["comm.republished_per_frame"] = per(after.republished, before.republished)
	v["comm.xhost_wire_kb_per_frame"] = per(after.xhostBytes, before.xhostBytes) / 1024
	v["comm.gob_frames"] = float64(after.gobFrames - before.gobFrames)
	v["shm.spills"] = float64(after.linkSpills - before.linkSpills + after.relayRingSpills - before.relayRingSpills)
	v["worker.delivered_per_frame"] = per(after.worker.Delivered, before.worker.Delivered)
	v["worker.dropped_stale"] = float64(after.worker.DroppedStale - before.worker.DroppedStale)
	v["worker.watermark_batches_per_frame"] = per(after.worker.WatermarkBatches, before.worker.WatermarkBatches)
	v["deadline.misses"] = float64(after.worker.DeadlineMisses - before.worker.DeadlineMisses)
	v["deadline.handler_runs"] = float64(after.worker.HandlerRuns - before.worker.HandlerRuns)
	v["deadline.handler_delay_p95_us"] = handlerDelayP95(before, after)
	v["lattice.urgency_misses"] = float64(after.worker.UrgencyMisses - before.worker.UrgencyMisses)
	v["lattice.ready_depth_max"] = float64(s.depthReady)
	v["lattice.pending_depth_max"] = float64(s.depthPending)
	v["cluster.forwarded_per_frame"] = per(after.forwarded, before.forwarded)
	v["cluster.heartbeat_bytes_per_s"] = float64(after.heartbeatBytes) / heartbeatPeriod.Seconds()
	v["go.allocs_per_frame"] = per(after.mallocs, before.mallocs)
	v["go.alloc_bytes_per_frame"] = per(after.allocBytes, before.allocBytes)
	v["go.gc_pause_total_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6

	resp := sortedCopy(o.responses)
	v["bench.response_p99_ms"] = percentile(resp, 99)
	v["bench.response_max_ms"] = resp[len(resp)-1]
	v["bench.miss_ratio"] = float64(o.failed()+o.late) / frames
	v["bench.failed_ratio"] = float64(o.failed()) / frames

	// What a heartbeat pays: snapshot every operator's state once.
	t0 := time.Now()
	bytes := 0
	for _, n := range s.rig.nodes {
		for _, cp := range n.Worker.Checkpoints() {
			bytes += len(cp.State)
			for _, old := range cp.Older {
				bytes += len(old.State)
			}
		}
	}
	v["state.checkpoint_us"] = us(time.Since(t0))
	v["state.checkpoint_bytes"] = float64(bytes)

	gp, err := s.run(gatedDur, true)
	if err != nil {
		return 0, err
	}
	gated := s.account(gp)
	if len(gated.responses) == 0 {
		return 0, errors.New("no gated frame completed")
	}
	return median(gated.responses), nil
}

// tracedPass boots a cluster whose workers wrap every callback, drives it
// with one frame in flight per lane and splits every frame's response into
// the per-layer spans.
func (b *bench) tracedPass(dur time.Duration, untracedP50 float64) error {
	s, _, err := b.setUp(b.cfg.seed, true)
	if err != nil {
		return err
	}
	defer s.rig.close()
	p, err := s.run(dur, true)
	if err != nil {
		return err
	}
	// Side work of the last frames may still be running; its spans are
	// recorded when it ends.
	s.rig.quiesce()
	var all []breakdown
	kinds := map[string][]float64{}
	for _, lr := range s.lanes {
		spans := s.tracer.byFrame(lr.idx)
		lr.mu.Lock()
		for k := p.first[lr.idx]; k < p.end[lr.idx]; k++ {
			rec := lr.recs[k]
			if rec.done == 0 || rec.wrong {
				continue
			}
			bd := decompose(s.tracer.lanes[lr.idx], rec, spans[k])
			all = append(all, bd)
			perKind := map[string]float64{}
			for i, kind := range lr.opKinds {
				perKind[kind] += bd.opBusy[i]
			}
			for kind, busy := range perKind {
				kinds[kind] = append(kinds[kind], busy)
			}
		}
		lr.mu.Unlock()
	}
	if len(all) == 0 {
		return errors.New("no traced frame completed")
	}
	col := func(f func(breakdown) float64) []float64 {
		out := make([]float64, len(all))
		for i, bd := range all {
			out[i] = f(bd)
		}
		return out
	}
	v := b.values
	v["worker.inject_us"] = median(col(func(bd breakdown) float64 { return bd.inject }))
	qw := sortedCopy(col(func(bd breakdown) float64 { return bd.queueWait }))
	v["lattice.queue_wait_us"] = percentile(qw, 50)
	v["lattice.queue_wait_p95_us"] = percentile(qw, 95)
	v["operator.busy_us"] = median(col(func(bd breakdown) float64 { return bd.busy }))
	for _, kind := range []string{"perception", "prediction", "planning", "control", "pdp", "stage", "merge"} {
		v["operator."+kind+".busy_us"] = median(kinds[kind])
	}
	v["comm.hop_in_us"] = median(col(func(bd breakdown) float64 { return bd.hopIn }))
	v["comm.hop_out_us"] = median(col(func(bd breakdown) float64 { return bd.hopOut }))
	v["cluster.residual_us"] = median(col(func(bd breakdown) float64 { return bd.residual }))
	v["bench.span_sum_ratio"] = median(col(func(bd breakdown) float64 { return bd.spanSum() / bd.response }))
	v["bench.trace_gen_late_us"] = median(col(func(bd breakdown) float64 { return bd.genLate }))
	tracedP50 := median(col(func(bd breakdown) float64 { return bd.response })) / 1e3
	v["bench.traced_response_p50_ms"] = tracedP50
	v["bench.trace_overhead_ratio"] = tracedP50 / untracedP50
	if r := v["bench.span_sum_ratio"]; r < 0.95 {
		b.violate("spans cover %.3f of the traced response, want at least 0.95", r)
	}
	return nil
}

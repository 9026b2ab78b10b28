package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/erdos-go/erdos/internal/core/worker"
)

// counters is one reading of every public counter the benchmark uses; the
// per-layer metrics are differences of two readings over the frames between
// them.
type counters struct {
	cpu time.Duration // user+sys of this process (getrusage)

	// comm: summed over every worker's transport.
	linkFrames, linkBytes, xhostBytes uint64
	flushes, coalesced, lateFlushes   uint64
	relaySent, republished            uint64
	gobFrames                         uint64
	linkSpills                        uint64
	holdNs                            float64           // mean adaptive hold cap over links, now
	worker                            worker.Stats      // HandlerDelays unused; see handlerDelays
	handlerDelays                     [][]time.Duration // per worker, whole history
	forwarded                         uint64
	mallocs, allocBytes, gcPauseNs    uint64
	heartbeatBytes                    uint64 // sum of each node's latest heartbeat
	relayRingSpills                   uint64 // leader's view (heartbeat-borne)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func (r *rig) read() counters {
	c := counters{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	links := 0
	for _, name := range r.job.workers {
		n := r.nodes[name]
		t := n.Transport
		for peer, st := range t.PeerCoalesceStats() {
			c.linkFrames += st.Frames
			c.linkBytes += st.Bytes
			if r.job.hosts[name] != r.job.hosts[peer] {
				c.xhostBytes += st.Bytes
			}
			c.linkSpills += st.ShmSpillCount
			c.holdNs += float64(st.HoldNs)
			links++
		}
		fl, co, late := t.CoalesceStats()
		c.flushes, c.coalesced, c.lateFlushes = c.flushes+fl, c.coalesced+co, c.lateFlushes+late
		sent, _, rep := t.RelayStats()
		c.relaySent, c.republished = c.relaySent+sent, c.republished+rep
		c.gobFrames += t.SentFrames().Gob + t.ReceivedFrames().Gob
		ws := n.Worker.Stats()
		c.worker.Delivered += ws.Delivered
		c.worker.DroppedStale += ws.DroppedStale
		c.worker.WatermarkBatches += ws.WatermarkBatches
		c.worker.DeadlineMisses += ws.DeadlineMisses
		c.worker.HandlerRuns += ws.HandlerRuns
		c.worker.UrgencyMisses += ws.UrgencyMisses
		c.handlerDelays = append(c.handlerDelays, ws.HandlerDelays)
		c.forwarded += n.Forwarded()
		c.heartbeatBytes += n.HeartbeatBytes()
	}
	if links > 0 {
		c.holdNs /= float64(links)
	}
	for _, rep := range r.leader.Congestion() {
		c.relayRingSpills += rep.RelayRingSpills
	}
	return c
}

// handlerDelayP95 is the p95 (us) of the deadline-handler start delays
// recorded between two readings. Stats returns each worker's whole history,
// so the earlier reading's length marks where the new entries begin.
func handlerDelayP95(before, after counters) float64 {
	var v []float64
	for i, d := range after.handlerDelays {
		if n := len(before.handlerDelays[i]); n <= len(d) {
			d = d[n:]
		}
		for _, x := range d {
			v = append(v, us(x))
		}
	}
	sort.Float64s(v)
	return percentile(v, 95)
}

// Command benchmark is the repository's benchmark: it boots real
// cluster.Leader/cluster.Join nodes in this process, drives them from one
// seeded generator goroutine, checks every output and prints the metrics
// BENCHMARK.json names. See README.md for what each workload loads and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics printed with -trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"response_p50_ms", "ms"},
	{"response_p95_ms", "ms"},
	{"on_time_ratio", "ratio"},
	{"goodput_fps", "1/s"},
	{"cpu_ms_per_frame", "ms"},
	{"wire_kb_per_frame", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics printed with -trace 1.
var perLayer = []metricDef{
	// Spans of the traced pass: medians over frames unless named otherwise.
	{"worker.inject_us", "us"},
	{"lattice.queue_wait_us", "us"},
	{"lattice.queue_wait_p95_us", "us"},
	{"operator.busy_us", "us"},
	{"operator.perception.busy_us", "us"},
	{"operator.prediction.busy_us", "us"},
	{"operator.planning.busy_us", "us"},
	{"operator.control.busy_us", "us"},
	{"operator.pdp.busy_us", "us"},
	{"operator.stage.busy_us", "us"},
	{"operator.merge.busy_us", "us"},
	{"comm.hop_in_us", "us"},
	{"comm.hop_out_us", "us"},
	{"cluster.residual_us", "us"},
	{"bench.span_sum_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.trace_gen_late_us", "us"},
	{"bench.traced_response_p50_ms", "ms"},
	// Counters over the untraced pass.
	{"comm.frames_per_frame", "count"},
	{"comm.flushes_per_frame", "count"},
	{"comm.coalesced_ratio", "ratio"},
	{"comm.late_flush_ratio", "ratio"},
	{"comm.hold_ns", "ns"},
	{"comm.relay_envelopes_per_frame", "count"},
	{"comm.republished_per_frame", "count"},
	{"comm.xhost_wire_kb_per_frame", "KB"},
	{"comm.gob_frames", "count"},
	{"comm.bcast_unreleased", "count"},
	{"shm.spills", "count"},
	{"worker.delivered_per_frame", "count"},
	{"worker.dropped_stale", "count"},
	{"worker.watermark_batches_per_frame", "count"},
	{"deadline.misses", "count"},
	{"deadline.handler_runs", "count"},
	{"deadline.handler_delay_p95_us", "us"},
	{"lattice.urgency_misses", "count"},
	{"lattice.ready_depth_max", "count"},
	{"lattice.pending_depth_max", "count"},
	{"cluster.forwarded_per_frame", "count"},
	{"cluster.heartbeat_bytes_per_s", "B/s"},
	{"state.checkpoint_us", "us"},
	{"state.checkpoint_bytes", "B"},
	{"go.allocs_per_frame", "count"},
	{"go.alloc_bytes_per_frame", "B"},
	{"go.gc_pause_total_ms", "ms"},
	{"go.goroutines_end", "count"},
	// Drivers: one layer's public API called directly.
	{"comm.tcp.rtt_us", "us"},
	{"comm.shm.rtt_us", "us"},
	{"comm.inproc.rtt_us", "us"},
	{"comm.tcp.rtt_slack_us", "us"},
	{"comm.shm.rtt_slack_us", "us"},
	{"comm.tcp.allocs_per_msg", "count"},
	{"comm.shm.allocs_per_msg", "count"},
	{"lattice.dispatch_ns", "ns"},
	{"lattice.submit_execute_ns", "ns"},
	// Diagnostics of the untraced pass: not gated, because they did not
	// repeat within a tenth between runs.
	{"bench.response_p99_ms", "ms"},
	{"bench.response_max_ms", "ms"},
	{"bench.gen_late_p95_us", "us"},
	{"bench.miss_ratio", "ratio"},
	{"bench.failed_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything needed to read the numbers.
type report struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Assignment map[string]string `json:"assignment"`
	Links      []link            `json:"links"`
	Samples    int               `json:"samples"`
	Segments   int               `json:"segments"`
	SetupsS    []float64         `json:"setup_samples_s,omitempty"`
	// Resolved is false when the generator ran too late for the numbers to
	// be compared: bench.gen_late_p95_us above a tenth of the frame period.
	Resolved   bool     `json:"resolved"`
	Violations []string `json:"violations"`
	// Claim is always null: this program measures, it does not argue.
	Claim *string `json:"claim"`
}

// segments is how many freshly set-up clusters share the measuring time of
// a -trace 0 run; every end-to-end metric is defined over them. It is not a
// flag, because two runs that differ in it are not comparable.
const segments = 20

// config is the command line plus what only the smoke test varies: segments
// (one, to stay short) and shmRoot, the directory for ring files and
// rendezvous sockets (short, because unix socket paths are limited).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	segments int
	shmRoot  string
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{segments: segments, shmRoot: ".bench_build/shm"}
	fs.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counters, traced pass, drivers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, res, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(rep)
	_ = enc.Encode(res)
	if !res.Correct {
		for _, v := range rep.Violations {
			fmt.Fprintln(stderr, "benchmark: violation:", v)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

// commit is stamped by run.sh; the program itself never looks outside its
// checkout for a repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// bench carries one invocation's state across its passes.
type bench struct {
	cfg               config
	wl                workload
	threads           int
	rep               report
	values            map[string]float64
	attempted, failed int
}

func (b *bench) violate(format string, a ...any) {
	b.rep.Violations = append(b.rep.Violations, fmt.Sprintf(format, a...))
}

// setUp builds the workload from seed, boots its cluster, attaches the
// lanes and warms them; the elapsed time is one set-up sample.
func (b *bench) setUp(seed int64, traced bool) (*session, time.Duration, error) {
	t0 := time.Now()
	j, err := b.wl.build(seed)
	if err != nil {
		return nil, 0, err
	}
	var t *tracer
	var wrap func(string, func()) func()
	if traced {
		t = newTracer(j)
		wrap = t.wrap
	}
	r, err := boot(j, b.cfg.shmRoot, b.threads, wrap)
	if err != nil {
		return nil, 0, err
	}
	s, err := attach(r, t)
	if err == nil {
		err = s.warm()
	}
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

const leadInTime = 250 * time.Millisecond

// measured is one untraced stretch of the real load and the counter
// readings around it.
type measured struct {
	outcome
	before, after counters
	spun          time.Duration
}

// measure runs the real load on s for dur and judges it. A lead-in of the
// same load is run and discarded first, so adaptive state (the coalescer's
// slack estimate, the pools) settles at the workload's own rate rather than
// at the warm-up's.
func (b *bench) measure(s *session, dur time.Duration) (measured, error) {
	b.rep.Assignment = s.rig.schedule().Assignments
	b.rep.Links = s.rig.links()
	if _, err := s.run(leadInTime, false); err != nil {
		return measured{}, err
	}
	s.depthReady, s.depthPending = 0, 0
	m := measured{before: s.rig.read(), spun: -s.spun}
	p, err := s.run(dur, false)
	if err != nil {
		return m, err
	}
	m.after = s.rig.read()
	m.spun += s.spun
	m.outcome = s.account(p)
	b.judge(s, m)
	if len(m.responses) == 0 {
		return m, errors.New("no frame completed")
	}
	return m, nil
}

func runBenchmark(cfg config) (report, result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return report{}, result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return report{}, result{}, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.shmRoot, 0o755); err != nil {
		return report{}, result{}, err
	}
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	runtime.GOMAXPROCS(threads)
	b := &bench{cfg: cfg, wl: wl, threads: threads, values: make(map[string]float64)}
	b.rep = report{
		Workload: wl.name, Why: wl.why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: threads,
		Segments: cfg.segments, Resolved: true, Violations: []string{},
	}
	var err error
	defs := endToEnd
	if cfg.trace == 0 {
		err = b.endToEndPass()
	} else {
		defs = perLayer
		err = b.perLayerPasses()
	}
	if err != nil {
		return report{}, result{}, err
	}
	acq, rel := comm.BroadcastFrameStats()
	b.values["comm.bcast_unreleased"] = float64(acq - rel)
	if acq != rel {
		b.violate("broadcast frames: %d acquired, %d released after Close", acq, rel)
	}
	res := result{
		Correct: len(b.rep.Violations) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return report{}, result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return b.rep, res, nil
}

// judge turns one measured phase into the correctness verdict and the
// response metrics shared by both modes.
func (b *bench) judge(s *session, m measured) {
	o := m.outcome
	b.attempted += o.attempted
	b.failed += o.failed()
	b.rep.Samples += len(o.responses)
	if o.lost > 0 {
		b.violate("%d of %d frames never produced a result", o.lost, o.attempted)
	}
	if o.wrong > 0 {
		b.violate("%d of %d frames produced a wrong result", o.wrong, o.attempted)
	}
	if dup, seq := s.orderViolations(); dup > 0 || seq > 0 {
		b.violate("%d duplicated and %d out-of-order results", dup, seq)
	}
	if g := m.after.gobFrames - m.before.gobFrames; g > 0 {
		b.violate("%d data-plane frames fell back to gob", g)
	}
	late := sortedCopy(o.lateness)
	if v := percentile(late, 95); v > b.values["bench.gen_late_p95_us"] {
		b.values["bench.gen_late_p95_us"] = v
	}
	if p := s.lanes[0].period; p > 0 && percentile(late, 95) > us(p)/10 {
		b.rep.Resolved = false
	}
}

// endToEndPass is -trace 0. The measuring time is split over several
// segments, each on a freshly set-up cluster, and every metric is the median
// of its per-segment values: response and CPU settle at a level that differs
// from one boot to the next by more than it moves within a boot (which
// threads end up parked where), so one long pass on one cluster would
// report the luck of that boot. The set-ups double as the setup_s samples.
// on_time_ratio is the exception: it is a count over all the run's frames,
// so that frames late on a minority of the boots still show.
func (b *bench) endToEndPass() error {
	per := make(map[string][]float64)
	onTime := 0
	// Every segment gets inputs of its own, drawn from the run's seed: a
	// run then sees twenty times as many distinct frames, and what depends
	// on the inputs (bytes on the wire, tracker cost) differs less from one
	// seed to the next.
	seeds := rand.New(rand.NewSource(b.cfg.seed))
	segment := time.Duration(b.cfg.seconds * float64(time.Second) / float64(b.cfg.segments))
	for i := 0; i < b.cfg.segments; i++ {
		s, setup, err := b.setUp(seeds.Int63(), false)
		if err != nil {
			return err
		}
		m, err := b.measure(s, segment)
		s.rig.close()
		if err != nil {
			return err
		}
		onTime += len(m.responses) - m.late
		resp := sortedCopy(m.responses)
		frames := float64(m.attempted)
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("response_p50_ms", percentile(resp, 50))
		add("response_p95_ms", percentile(resp, 95))
		add("goodput_fps", float64(len(m.responses)-m.late)/m.elapsed.Seconds())
		add("cpu_ms_per_frame", ms(m.after.cpu-m.before.cpu-m.spun)/frames)
		add("wire_kb_per_frame", float64(m.after.linkBytes-m.before.linkBytes)/1024/frames)
		per["setup_s"] = append(per["setup_s"], setup.Seconds())
	}
	for name, v := range per {
		b.values[name] = median(v)
	}
	b.rep.SetupsS = per["setup_s"]
	b.values["on_time_ratio"] = float64(onTime) / float64(b.attempted)
	b.values["peak_rss_mb"] = peakRSSMB()
	return nil
}

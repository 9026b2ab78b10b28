package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/message"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram keeps BENCHMARK.json and the program in step:
// every name the manifest lists is printed, with the same unit, and nothing
// else is.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Command) != 2 || m.Command[0] != "bash" || m.Command[1] != "benchmark/run.sh" ||
		len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", m.Command, m.Paths, m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(kind string, listed []manifestMetric, printed []metricDef, bounded bool) {
		if len(listed) != len(printed) {
			t.Errorf("%s: manifest lists %d metrics, program prints %d", kind, len(listed), len(printed))
			return
		}
		seen := map[string]bool{}
		for i, lm := range listed {
			pm := printed[i]
			if lm.Name != pm.name || lm.Unit != pm.unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", kind, i, lm.Name, lm.Unit, pm.name, pm.unit)
			}
			if !nameRE.MatchString(lm.Name) || !unitRE.MatchString(lm.Unit) || seen[lm.Name] {
				t.Errorf("%s: %q (%q) is not a legal, unique name and unit", kind, lm.Name, lm.Unit)
			}
			seen[lm.Name] = true
			if lm.Better != "lower" && lm.Better != "higher" {
				t.Errorf("%s: %s: better is %q", kind, lm.Name, lm.Better)
			}
			if bounded != (lm.Bound != nil) || (bounded && (*lm.Bound <= 0 || *lm.Bound > 0.25)) {
				t.Errorf("%s: %s: bound missing, unexpected or outside (0, 0.25]", kind, lm.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

func smoke(t *testing.T, workload string, trace int, seconds float64) result {
	t.Helper()
	rep, res, err := runBenchmark(config{
		workload: workload, seed: 7, seconds: seconds, trace: trace, segments: 1, shmRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d violations=%v", workload, res.Correct, res.Attempted, res.Failed, rep.Violations)
	}
	if rep.Claim != nil {
		t.Errorf("%s: the benchmark makes a claim", workload)
	}
	return res
}

// TestWorkloadsSmoke runs every workload briefly with the correctness gate
// on: placement and transports as named, one in-order result per frame,
// sums right, no gob frames, broadcast frames balanced.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.name, 0, 0.5)
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, v, d.unit)
			}
		}
	}
}

// TestTracedPassCoversResponse runs the per-layer passes on pylot-1host; the
// run is correct only if the spans cover at least 95% of the response.
func TestTracedPassCoversResponse(t *testing.T) {
	res := smoke(t, "pylot-1host", 1, 1.5)
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("%s missing or in the wrong unit: %+v", d.name, v)
		}
	}
	if r := res.Metrics["bench.span_sum_ratio"].Value; r < 0.95 || r > 1.0001 {
		t.Errorf("bench.span_sum_ratio = %v, want within [0.95, 1]", r)
	}
}

// TestRepeatedPartDoesNotCompleteFrame: a fanout frame delivered twice to
// one stage and never to another yields the right number of right sums; it
// must count as a duplicate and an incomplete frame, not as exact.
func TestRepeatedPartDoesNotCompleteFrame(t *testing.T) {
	lr := &laneRun{
		lane: &lane{resultsPerFrame: 2, check: func(_ int, v any) (int, bool) { return v.(int), true }},
		recs: make([]frameRec, 1), doneCh: make(chan struct{}, 1),
	}
	s := &session{epoch: time.Now()}
	ts := erdos.T(1)
	s.onResult(lr, message.Data(ts, 0))
	s.onResult(lr, message.Data(ts, 0))
	if lr.dup != 1 || lr.completed != 0 || lr.recs[0].done != 0 {
		t.Fatalf("part 0 twice: dup=%d completed=%d done=%d, want 1, 0, 0", lr.dup, lr.completed, lr.recs[0].done)
	}
	s.onResult(lr, message.Data(ts, 1))
	if lr.dup != 1 || lr.completed != 1 || lr.recs[0].done == 0 {
		t.Fatalf("both parts: dup=%d completed=%d done=%d, want 1, 1, set", lr.dup, lr.completed, lr.recs[0].done)
	}
}

// TestSideOperatorBusyCountsAfterTheResult: pDP across hosts runs after the
// command has left; its run time is still its run time.
func TestSideOperatorBusyCountsAfterTheResult(t *testing.T) {
	refs := []opRef{{op: 0, critical: true, in: true, out: true}, {op: 1}}
	rec := frameRec{due: 0, injStart: 0, injEnd: 10_000, done: 100_000}
	bd := decompose(refs, rec, []span{
		{op: 0, submit: 20_000, start: 30_000, end: 90_000},
		{op: 1, submit: 110_000, start: 120_000, end: 150_000},
	})
	if bd.opBusy[0] != 60 || bd.opBusy[1] != 30 {
		t.Fatalf("busy = %v us, want [60 30]", bd.opBusy)
	}
	if got := bd.spanSum() + bd.residual; got < 99.9 || got > 100.1 {
		t.Fatalf("parts sum to %v us of a 100 us response", got)
	}
}

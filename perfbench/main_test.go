package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"taurus/internal/core"
)

// smoke runs every workload at a tiny size, traced and untraced, and
// checks that it is correct and emits its whole metric set.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.2, trace: trace}
			var tr *tracer
			if trace {
				tr = newTracer()
			}
			var res *outcome
			var err error
			if spec, ok := serveSpecs[name]; ok {
				res, err = runServe(o, spec, serveRun{setups: 1, poolBatches: 2, retrains: 1, probes: 1}, tr)
			} else {
				res, err = runDrift(o, driftRun{rounds: 2 * driftPeriod, streams: 2, probes: 1}, tr)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res.metrics.set("max_rss_mb", maxRSSMB(), "MB")
			res.metrics.set("failed_frac", float64(res.failed)/float64(res.attempted), "ratio")
			out, err := report(res, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
		}
	}
}

// A wrong expected score must count as a failed batch: the checker checks.
func TestCorruptedScoreCounts(t *testing.T) {
	in, err := genServe(serveSpecs["serve-bypass-mix"], 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := deploy(in.train, nil, "setup")
	if err != nil {
		t.Fatal(err)
	}
	defer d.pipe.Close()
	if err := in.expect(d); err != nil {
		t.Fatal(err)
	}
	out := make([]core.Decision, batchSize)
	if _, err := d.pipe.ProcessBatch(in.batches[0], out); err != nil {
		t.Fatal(err)
	}
	if bad := in.mismatches(0, out); bad != 0 {
		t.Fatalf("clean batch: %d mismatches", bad)
	}
	k := in.sampleOf[0][firstML(t, in.sampleOf[0])]
	in.samples[k].score++
	res := newOutcome()
	res.op(in.mismatches(0, out) == 0)
	if res.failed != 1 {
		t.Errorf("corrupted score: failed=%d, want 1", res.failed)
	}
	in.samples[k].score--

	// Each kind of packet is checked too.
	for i, f := range in.flowOf[0] {
		if in.flows[f].kind == kindTrunc {
			out[i].Verdict = core.Forward
			if in.mismatches(0, out) == 0 {
				t.Error("a forwarded malformed frame passed the check")
			}
			break
		}
	}
}

func firstML(t *testing.T, sampleOf []int32) int {
	for i, k := range sampleOf {
		if k >= 0 {
			return i
		}
	}
	t.Fatal("batch has no ML packet")
	return -1
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// BENCHMARK.json names exactly the workloads and metrics the program
// runs and emits (TestWorkloadsSmoke checks each is emitted).
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for i, n := range names {
		if i < len(workloadNames) && n != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, n, workloadNames[i])
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i := range got {
			names = append(names, got[i].name)
			if i < len(want) && got[i] != want[i] {
				t.Errorf("%s %d: %v, the program emits %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

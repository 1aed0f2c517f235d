// Command perfbench is the repository's benchmark. It runs one workload
// through the public APIs of the pipeline, core and controlplane packages,
// checks every output against a reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics timed around each
// layer's calls) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-dnn --seed 1 --seconds 20 --trace 0
//
// Workloads (closed loop, one client, 2 shards, DNN 6-12-6-3-1):
//
//	serve-dnn          every packet takes the ML path
//	serve-bypass-mix   mostly bypass traffic, some malformed frames
//	drift-recover-dnn  drifting traffic, the controller retrains on drift
//
// The inputs are generated from -seed before timing starts. A traced run
// also writes its spans to .bench_build/perfbench/. Earlier lines of
// standard output carry the run's provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"taurus/internal/pipeline"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"serve_pps", "pkt/s"},
	{"batch_p50_us", "us"},
	{"batch_tail_us", "us"},
	{"recover_p50_ms", "ms"},
	{"loop_f1", "%"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, timed around each layer's calls.
var perLayer = []metricDef{
	{"pipeline.batch_us", "us"},
	{"pipeline.hash_ns_per_pkt", "ns"},
	{"pipeline.overhead_us", "us"},
	{"pipeline.shard_skew", "ratio"},
	{"core.shard_us", "us"},
	{"core.ns_per_pkt", "ns"},
	{"pisa.parse_ns_per_pkt", "ns"},
	{"sched.tape_ns_per_mlpkt", "ns"},
	{"core.other_ns_per_pkt", "ns"},
	{"core.ml_frac", "ratio"},
	{"core.parse_errors", "count"},
	{"core.tape_fallbacks", "count"},
	{"core.allocs_per_pkt", "count"},
	{"controlplane.observe_us", "us"},
	{"controlplane.detect_batches", "count"},
	{"controlplane.retrain_ms", "ms"},
	{"trafficgen.label_pool_ms", "ms"},
	{"model.fit_ms", "ms"},
	{"model.fit_alloc_mb", "MB"},
	{"model.lower_ms", "ms"},
	{"pipeline.update_weights_ms", "ms"},
	{"tapecheck.recheck_ms", "ms"},
	{"controlplane.self_ms", "ms"},
	{"controlplane.retrains", "count"},
	{"controlplane.retrain_failures", "count"},
	{"model.train_ms", "ms"},
	{"graphcheck.verify_us", "us"},
	{"compiler.compile_ms", "ms"},
	{"sched.compile_us", "us"},
	{"tapecheck.verify_us", "us"},
	{"pipeline.load_model_ms", "ms"},
	{"trafficgen.gen_ms", "ms"},
	{"trace.serve_pps", "pkt/s"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

var workloadNames = []string{"serve-dnn", "serve-bypass-mix", "drift-recover-dnn"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// spansDir is where a traced run writes its spans, under the checkout.
const spansDir = ".bench_build/perfbench"

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's figures; notes are context printed with the
// provenance, not metrics.
type metrics struct {
	vals  map[string]metric
	notes map[string]float64
}

func (m *metrics) set(name string, v float64, unit string) { m.vals[name] = metric{v, unit} }
func (m *metrics) get(name string) float64                 { return m.vals[name].Value }
func (m *metrics) note(name string, v float64)             { m.notes[name] = v }

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	metrics           *metrics
	// modelled holds figures derived from the hardware model, never
	// measured: they are reported beside the metrics, never as one.
	modelled map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: &metrics{vals: map[string]metric{}, notes: map[string]float64{}}}
}

// op counts one operation (a ProcessBatch or RetrainNow call) and whether
// its outputs were correct.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func modelled(d *deployment, bs pipeline.BatchStats) map[string]float64 {
	return map[string]float64{
		"model_pps":    bs.ModelPacketsPerSec(),
		"scheduled_ii": float64(d.pipe.ScheduledII()),
	}
}

func runWorkload(o options, tr *tracer) (*outcome, error) {
	if spec, ok := serveSpecs[o.workload]; ok {
		return runServe(o, spec, defaultServeRun, tr)
	}
	if o.workload == "drift-recover-dnn" {
		return runDrift(o, defaultDriftRun, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

type provenance struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Params     map[string]any     `json:"params"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUModel   string             `json:"cpu_model"`
	Revision   string             `json:"revision"`
	Notes      map[string]float64 `json:"notes,omitempty"`
	Modelled   map[string]float64 `json:"modelled,omitempty"`
}

func newProvenance(o options) provenance {
	params := map[string]any{
		"shards": numShards, "batch": batchSize, "dnn": dnnShape, "clients": 1,
		"loop": "closed", "init_records": initRecords, "retrain_records": retrainRecords,
	}
	if spec, ok := serveSpecs[o.workload]; ok {
		params["flows"] = spec.flows
		params["ml_frac"], params["udp_frac"], params["trunc_frac"] = spec.mlFrac, spec.udpFrac, spec.truncFrac
		params["setups"], params["pool_batches"] = defaultServeRun.setups, defaultServeRun.poolBatches
		params["forced_retrains"] = defaultServeRun.retrains
	} else {
		params["flows"], params["rounds_per_pass"] = driftFlows, defaultDriftRun.rounds
		params["streams"] = defaultDriftRun.streams
		params["phase_period"] = driftPeriod
	}
	return provenance{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Params: params,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Revision: revision(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, when it was
// built inside a git checkout.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report selects the run's metric set; it fails if any is missing.
func report(res *outcome, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := res.metrics.vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if v.Unit != d.unit {
			return result{}, fmt.Errorf("metric %s has unit %s, want %s", d.name, v.Unit, d.unit)
		}
		out.Metrics[d.name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func run(o options) (result, provenance, error) {
	prov := newProvenance(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res, err := runWorkload(o, tr)
	if err != nil {
		return result{}, prov, err
	}
	m := res.metrics
	m.set("max_rss_mb", maxRSSMB(), "MB")
	if res.attempted > 0 {
		m.set("failed_frac", float64(res.failed)/float64(res.attempted), "ratio")
	}
	prov.Notes, prov.Modelled = m.notes, res.modelled
	if tr != nil {
		path, err := tr.write(spansDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed), prov)
		if err != nil {
			return result{}, prov, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	out, err := report(res, o.trace)
	return out, prov, err
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1 times each layer and reports the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, prov, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

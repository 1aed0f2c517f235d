package main

import (
	"fmt"
	"math/rand"
	"time"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/sched"
	"taurus/internal/sched/tapecheck"
)

// The deployment every workload serves: the anomaly DNN 6-12-6-3-1 on a
// 2-shard pipeline, so the driver goroutine plus the shard workers that are
// busy at any moment never exceed two CPUs.
const (
	numShards      = 2
	batchSize      = 2048
	threshold      = 64 // post-processing cut: score >= 64 is flagged
	initRecords    = 4000
	initFits       = 3
	fitEpochs      = 10
	retrainRecords = 3000
)

var dnnShape = []int{6, 12, 6, 3, 1}

// modelSeed seeds the DNN's initial weights and the trainer's shuffling.
// It is part of the deployment, not of the inputs: --seed varies the
// traffic and the training records only. Some initialisations train into a
// model that flags every packet, which would make loop_f1 measure the
// initialisation instead of the system.
const modelSeed = 1

// deployment is one trained, lowered, verified and loaded model.
type deployment struct {
	dep   model.Deployable // what the controller drives (traced in traced runs)
	raw   *model.DNN
	inQ   fixed.Quantizer
	graph *mr.Graph // the lowered graph; the pipeline serves clones of it
	prog  *sched.Program
	reg   *obs.Registry // the pipeline's own metrics
	pipe  *pipeline.Pipeline
}

func deviceConfig(reg *obs.Registry) core.Config {
	cfg := core.DefaultConfig(dataset.NumAnomalyFeatures)
	cfg.Threshold = threshold
	cfg.Obs = reg
	cfg.Tracer = obs.NewTracer(64)
	return cfg
}

// deploy trains a fresh DNN on recs, lowers it, verifies the graph and its
// tape, and loads it onto a new pipeline: the work setup_s measures. Each
// stage is a child span of one "setup" span when tr is non-nil.
func deploy(recs []dataset.Record, tr *tracer, group string) (*deployment, time.Duration, error) {
	start := time.Now()
	root := tr.open("setup", -1, group, start)
	tr.enter(root, group)

	net := ml.NewDNN(dnnShape, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(modelSeed)))
	raw, err := model.NewDNN(net, model.DNNConfig{Epochs: fitEpochs, Seed: modelSeed})
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{dep: raw, raw: raw, inQ: model.InputQuantizerFor(recs), reg: obs.NewRegistry()}
	if tr != nil {
		d.dep = tracedModel{Deployable: raw, tr: tr}
	}
	for i := 0; i < initFits; i++ {
		if err := d.dep.Fit(recs); err != nil {
			return nil, 0, err
		}
	}
	if d.graph, err = d.dep.Lower(d.inQ); err != nil {
		return nil, 0, err
	}

	t := time.Now()
	rep := graphcheck.Verify(d.graph)
	tr.add("graphcheck.Verify", root, group, t, time.Now())
	if !rep.OK() {
		return nil, 0, rep.Err()
	}
	t = time.Now()
	_, err = compiler.Compile(d.graph.Clone(), compiler.Options{})
	tr.add("compiler.Compile", root, group, t, time.Now())
	if err != nil {
		return nil, 0, err
	}
	t = time.Now()
	d.prog, err = sched.CompileUnverified(d.graph.Clone(), cgra.DefaultGrid())
	tr.add("sched.CompileUnverified", root, group, t, time.Now())
	if err != nil {
		return nil, 0, err
	}
	t = time.Now()
	trep := tapecheck.Verify(d.prog)
	tr.add("tapecheck.Verify", root, group, t, time.Now())
	if !trep.OK() {
		return nil, 0, trep.Err()
	}

	if d.pipe, err = pipeline.New(pipeline.Config{Shards: numShards, Device: deviceConfig(d.reg)}); err != nil {
		return nil, 0, err
	}
	t = time.Now()
	//clonecheck:owned — LoadModel installs per-shard clones; d.graph stays the benchmark's reference copy
	//gatecheck:verified — graphcheck.Verify and tapecheck.Verify passed above, and LoadModel gates again
	err = d.pipe.LoadModel(d.graph, d.inQ, compiler.Options{})
	tr.add("pipeline.LoadModel", root, group, t, time.Now())
	if err != nil {
		d.pipe.Close()
		return nil, 0, err
	}
	if !d.pipe.TapeVerified() {
		d.pipe.Close()
		return nil, 0, fmt.Errorf("pipeline serves the interpreter: %s", d.pipe.TapeFallbackReason())
	}
	end := time.Now()
	tr.close(root, end)
	tr.enter(-1, "")
	return d, end.Sub(start), nil
}

// setupMetrics reports the per-stage set-up costs, as medians over every
// setup the run made.
func setupMetrics(tr *tracer, m *metrics) {
	m.set("model.train_ms", median(vals(tr.sumUnder("model.Fit", "setup"), ms)), "ms")
	m.set("graphcheck.verify_us", median(vals(tr.durs("graphcheck.Verify"), us)), "us")
	m.set("compiler.compile_ms", median(vals(tr.durs("compiler.Compile"), ms)), "ms")
	m.set("sched.compile_us", median(vals(tr.durs("sched.CompileUnverified"), us)), "us")
	m.set("tapecheck.verify_us", median(vals(tr.durs("tapecheck.Verify"), us)), "us")
	m.set("pipeline.load_model_ms", median(vals(tr.durs("pipeline.LoadModel"), ms)), "ms")
}

// expectedScore is the reference Graph.Eval output for one feature vector,
// quantised with inQ the way the device's feature MATs quantise it.
func expectedScore(g *mr.Graph, inQ fixed.Quantizer, feats []float32) (int32, error) {
	codes := make([]int32, len(feats))
	for i, f := range feats {
		codes[i] = int32(inQ.Quantize(f))
	}
	out, err := g.Eval(codes)
	if err != nil {
		return 0, err
	}
	return out[0][0], nil
}

// verdictFor is the post-processing MAT's decision for an ML score.
func verdictFor(score int32) core.Verdict {
	if score-threshold >= 0 {
		return core.Flag
	}
	return core.Forward
}

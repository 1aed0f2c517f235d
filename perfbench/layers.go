package main

import (
	"runtime"
	"time"

	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/obs"
	"taurus/internal/pisa"
)

// sink keeps probe results alive.
var sink uint32

// expectations caches the reference score of each feature vector the
// probes meet, keyed by the vector's backing array: packets of one flow
// share it.
type expectations struct {
	d     *deployment
	score map[*float32]int32
}

// of returns the reference score for an ML packet (one carrying
// features); ok is false for any other packet.
func (e *expectations) of(p core.PacketIn) (score int32, ok bool, err error) {
	if len(p.Features) == 0 {
		return 0, false, nil
	}
	key := &p.Features[0]
	if s, hit := e.score[key]; hit {
		return s, true, nil
	}
	s, err := expectedScore(e.d.graph, e.d.inQ, p.Features)
	if err != nil {
		return 0, false, err
	}
	e.score[key] = s
	return s, true, nil
}

// mismatches checks a probe's decisions: ML packets against the
// deployment's reference, everything else must be forwarded unscored or
// dropped.
func (e *expectations) mismatches(batch []core.PacketIn, out []core.Decision) (int, error) {
	bad := 0
	for i, p := range batch {
		want, ml, err := e.of(p)
		if err != nil {
			return 0, err
		}
		d := out[i]
		if ml {
			if d.Bypassed || d.MLScore != want || d.Verdict != verdictFor(want) {
				bad++
			}
		} else if !(d.Bypassed && d.Verdict == core.Forward) && !(!d.Bypassed && d.Verdict == core.Drop) {
			bad++
		}
	}
	return bad, nil
}

// probeReps is how many times each probe times each batch, after one
// untimed pass that warms the caches; the metric is the median.
const probeReps = 5

// probeLayers times each data-plane layer standalone, from outside the
// program, on the first probes batches, and the allocations of one pass of
// the pipeline's batch loop over all of them. The deployment's graph and
// tape are the ones it loaded, whatever was pushed since.
func probeLayers(m *metrics, d *deployment, batches [][]core.PacketIn, probes int, res *outcome) error {
	probes = min(probes, len(batches))
	exp := &expectations{d: d, score: map[*float32]int32{}}

	// Shard dispatch: the hash and the partition balance.
	var hashNs, skew []float64
	for _, batch := range batches {
		var counts [numShards]int
		start := time.Now()
		for _, p := range batch {
			h := core.ShardHash(p.Data)
			sink ^= h
			counts[h%numShards]++
		}
		hashNs = append(hashNs, float64(time.Since(start).Nanoseconds())/float64(len(batch)))
		hi := 0
		for _, c := range counts {
			hi = max(hi, c)
		}
		skew = append(skew, float64(hi*numShards)/float64(len(batch)))
	}
	m.set("pipeline.hash_ns_per_pkt", median(hashNs), "ns")
	m.set("pipeline.shard_skew", median(skew), "ratio")

	// A standalone device with the same model: the whole batch, then each
	// shard's partition on its own.
	dev, err := core.NewDevice(deviceConfig(obs.NewRegistry()))
	if err != nil {
		return err
	}
	//clonecheck:owned — the device takes a private clone
	//gatecheck:verified — the same graph cleared graphcheck and tapecheck in deploy
	if err := dev.LoadModel(d.graph.Clone(), d.inQ, compiler.Options{}); err != nil {
		return err
	}
	out := make([]core.Decision, batchSize)
	var devNs, shardUs []float64
	for _, batch := range batches[:probes] {
		for rep := 0; rep <= probeReps; rep++ {
			start := time.Now()
			err := dev.ProcessBatch(batch, out)
			dt := time.Since(start)
			if rep > 0 {
				devNs = append(devNs, float64(dt.Nanoseconds())/float64(len(batch)))
			}
			bad, cerr := exp.mismatches(batch, out)
			if cerr != nil {
				return cerr
			}
			res.op(err == nil && bad == 0)
		}
		parts := make([][]int, numShards)
		for i, p := range batch {
			s := core.ShardHash(p.Data) % numShards
			parts[s] = append(parts[s], i)
		}
		for rep := 0; rep < probeReps; rep++ {
			var slowest time.Duration
			for _, idx := range parts {
				start := time.Now()
				if err := dev.ProcessIndexed(batch, out, idx); err != nil {
					return err
				}
				slowest = max(slowest, time.Since(start))
			}
			shardUs = append(shardUs, us(slowest))
		}
	}
	m.set("core.ns_per_pkt", median(devNs), "ns")
	m.set("core.shard_us", median(shardUs), "us")
	m.set("pipeline.overhead_us", m.get("pipeline.batch_us")-median(shardUs), "us")

	// The parser alone on the same packets.
	layout := pisa.NewLayout(pisa.StandardLayoutFields()...)
	parser, err := pisa.StandardParser(layout)
	if err != nil {
		return err
	}
	phv := pisa.NewPHV(layout)
	var parseNs []float64
	for _, batch := range batches[:probes] {
		for rep := 0; rep <= probeReps; rep++ {
			start := time.Now()
			for _, p := range batch {
				phv.Reset()
				n, _ := parser.Parse(p.Data, phv) // malformed frames fail here, as in the device
				sink += uint32(n)
			}
			if rep > 0 {
				parseNs = append(parseNs, float64(time.Since(start).Nanoseconds())/float64(len(batch)))
			}
		}
	}
	m.set("pisa.parse_ns_per_pkt", median(parseNs), "ns")

	// The compiled tape alone, in sweeps of its batch capacity over each
	// batch's ML packets; its outputs must match the reference scores.
	prog := d.prog
	var tapeNs []float64
	for _, batch := range batches[:probes] {
		var ml []core.PacketIn
		for _, p := range batch {
			if len(p.Features) > 0 {
				ml = append(ml, p)
			}
		}
		if len(ml) == 0 {
			continue
		}
		bad := 0
		for rep := 0; rep <= probeReps; rep++ {
			var busy time.Duration
			for lo := 0; lo < len(ml); lo += prog.MaxBatch() {
				chunk := ml[lo:min(lo+prog.MaxBatch(), len(ml))]
				for j, p := range chunk {
					codes := prog.InAt(0, j)
					for k, v := range p.Features {
						codes[k] = int32(d.inQ.Quantize(v))
					}
				}
				start := time.Now()
				prog.RunBatch(len(chunk))
				busy += time.Since(start)
				if rep > 0 {
					continue
				}
				for j, p := range chunk {
					want, _, err := exp.of(p)
					if err != nil {
						return err
					}
					if prog.OutAt(0, j)[0] != want {
						bad++
					}
				}
			}
			if rep > 0 {
				tapeNs = append(tapeNs, float64(busy.Nanoseconds())/float64(len(ml)))
			}
		}
		res.op(bad == 0)
	}
	m.set("sched.tape_ns_per_mlpkt", median(tapeNs), "ns")

	// Allocations over one untimed pass of the pipeline's batch loop.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, batch := range batches {
		if _, err := d.pipe.ProcessBatch(batch, out); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m.set("core.allocs_per_pkt", float64(after.Mallocs-before.Mallocs)/float64(len(batches)*batchSize), "count")

	// The device's own counters, and the residual of the stage sum.
	st := d.pipe.Stats()
	m.set("core.ml_frac", float64(st.MLInferences)/float64(st.Processed), "ratio")
	m.set("core.parse_errors", float64(st.ParseErrors), "count")
	m.set("core.tape_fallbacks", float64(st.TapeFallbacks), "count")
	other := m.get("core.ns_per_pkt") - m.get("pisa.parse_ns_per_pkt") -
		m.get("sched.tape_ns_per_mlpkt")*m.get("core.ml_frac")
	m.set("core.other_ns_per_pkt", other, "ns")
	return nil
}

// controlLoop drives a Controller synchronously, through the timing
// wrappers when traced. attach starts a controller over each new
// deployment; the counts run across all of them.
type controlLoop struct {
	tr       *tracer
	ctrl     *controlplane.Controller
	retrains int
	failures int
}

func (c *controlLoop) attach(d *deployment, src controlplane.LabelSource) error {
	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = retrainRecords
	cfg.Obs = d.reg
	cfg.Tracer = obs.NewTracer(256)
	var pusher controlplane.Pusher = d.pipe
	if c.tr != nil {
		pusher = tracedPusher{p: d.pipe, tr: c.tr}
		src = tracedLabels(src, c.tr)
	}
	ctrl, err := controlplane.New(pusher, d.dep, d.inQ, src, cfg)
	if err != nil {
		return err
	}
	c.ctrl = ctrl
	return nil
}

// observe feeds a batch's decisions to the drift detector.
func (c *controlLoop) observe(out []core.Decision, group string) bool {
	start := time.Now()
	drift := c.ctrl.Observe(out)
	c.tr.add("controlplane.Observe", -1, group, start, time.Now())
	return drift
}

// retrain runs one RetrainNow; the recovery span runs from start.
func (c *controlLoop) retrain(group string, start time.Time) error {
	id := c.tr.open("controlplane.RetrainNow", -1, group, time.Now())
	c.tr.enter(id, group)
	err := c.ctrl.RetrainNow()
	end := time.Now()
	c.tr.close(id, end)
	c.tr.enter(-1, "")
	c.tr.add("recover", -1, group, start, end)
	if err != nil {
		c.failures++
	} else {
		c.retrains++
	}
	return err
}

// metrics reports the control plane's per-layer figures.
func (c *controlLoop) metrics(m *metrics, detectBatches float64) {
	tr := c.tr
	if tr == nil {
		return
	}
	m.set("controlplane.observe_us", median(vals(tr.durs("controlplane.Observe"), us)), "us")
	m.set("controlplane.detect_batches", detectBatches, "count")
	m.set("controlplane.retrain_ms", median(vals(tr.durs("controlplane.RetrainNow"), ms)), "ms")
	m.set("controlplane.self_ms", median(vals(tr.selfTimes("controlplane.RetrainNow"), ms)), "ms")
	m.set("controlplane.retrains", float64(c.retrains), "count")
	m.set("controlplane.retrain_failures", float64(c.failures), "count")
	m.set("trafficgen.label_pool_ms", median(vals(tr.durUnder("trafficgen.LabelSource", "controlplane.RetrainNow"), ms)), "ms")
	m.set("model.fit_ms", median(vals(tr.durUnder("model.Fit", "controlplane.RetrainNow"), ms)), "ms")
	var alloc []float64
	for _, s := range tr.under("model.Fit", "controlplane.RetrainNow") {
		alloc = append(alloc, float64(s.AllocBytes)/1e6)
	}
	m.set("model.fit_alloc_mb", median(alloc), "MB")
	m.set("model.lower_ms", median(vals(tr.durUnder("model.Lower", "controlplane.RetrainNow"), ms)), "ms")
	m.set("pipeline.update_weights_ms", median(vals(tr.durUnder("pipeline.UpdateWeights", "controlplane.RetrainNow"), ms)), "ms")
	m.set("tapecheck.recheck_ms", median(vals(tr.durUnder("tapecheck.RecheckTape", "controlplane.RetrainNow"), ms)), "ms")
}

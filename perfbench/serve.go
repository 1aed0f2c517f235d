package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/ml"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
)

// serveSpec is one traffic mix of a serve workload.
type serveSpec struct {
	flows int
	// Shares of flows by kind; ARP frames take the rest.
	mlFrac, udpFrac, truncFrac float64
}

var serveSpecs = map[string]serveSpec{
	// Every packet takes the ML path: the data plane does all the work.
	"serve-dnn": {flows: 512, mlFrac: 1},
	// Mostly bypass traffic over more flows than the 4096 register slots,
	// with malformed frames the parser must drop.
	"serve-bypass-mix": {flows: 16384, mlFrac: 0.12, udpFrac: 0.55, truncFrac: 0.03},
}

type pktKind uint8

const (
	kindML    pktKind = iota // TCP with features: parse, MATs, tape
	kindUDP                  // bypasses MapReduce
	kindARP                  // not IPv4: bypasses MapReduce
	kindTrunc                // truncated frame: the parser drops it
)

type flowInfo struct {
	kind pktKind
	pkt  []byte
}

// sample is the record an ML flow carries in one batch: each flow redraws
// its features every batch, as the drifting stream's flows do.
type sample struct {
	feats     []float32
	anomalous bool
	score     int32 // reference MLScore
}

// serveInput is everything a serve run feeds the program, generated from
// the seed before any timing starts.
type serveInput struct {
	flows   []flowInfo
	batches [][]core.PacketIn // the pool the closed loop cycles through
	flowOf  [][]int32         // flowOf[b][i] is the flow of batches[b][i]
	samples []sample
	// sampleOf[b][i] is the sample batches[b][i] carries (-1: none).
	sampleOf [][]int32
	train    []dataset.Record // initial training records
	labels   []dataset.Record // labelled telemetry for the forced retrains
	next     int              // labels handed out so far
}

func genServe(spec serveSpec, seed int64, poolBatches, retrains int) (*serveInput, error) {
	rng := rand.New(rand.NewSource(seed))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	in := &serveInput{
		flows:  make([]flowInfo, spec.flows),
		train:  gen.Records(initRecords),
		labels: gen.Records(retrainRecords * retrains),
	}
	for f := range in.flows {
		src := 0x0a000000 | rng.Uint32()&0xffffff
		dst := 0x0a800000 | rng.Uint32()&0xffffff
		sport := uint16(1024 + rng.Intn(60000))
		fl := &in.flows[f]
		switch u := rng.Float64(); {
		case u < spec.mlFrac:
			fl.kind = kindML
			fl.pkt = pisa.BuildTCPPacket(src, dst, sport, 443, 0x10, 64)
		case u < spec.mlFrac+spec.udpFrac:
			fl.kind = kindUDP
			fl.pkt = udpPacket(src, dst, sport, 53, 64)
		case u < spec.mlFrac+spec.udpFrac+spec.truncFrac:
			fl.kind = kindTrunc
			full := pisa.BuildTCPPacket(src, dst, sport, 443, 0x10, 0)
			// Short of the full Ethernet+IPv4+TCP header at a random point,
			// so every parse state sees truncation.
			fl.pkt = append([]byte(nil), full[:1+rng.Intn(len(full)-1)]...)
		default:
			fl.kind = kindARP
			fl.pkt = arpFrame(src, dst)
		}
	}
	in.batches = make([][]core.PacketIn, poolBatches)
	in.flowOf = make([][]int32, poolBatches)
	in.sampleOf = make([][]int32, poolBatches)
	for b := range in.batches {
		ins := make([]core.PacketIn, batchSize)
		of := make([]int32, batchSize)
		so := make([]int32, batchSize)
		drawn := map[int]int32{} // this batch's sample of each ML flow
		for i := range ins {
			f := rng.Intn(spec.flows)
			of[i], so[i] = int32(f), -1
			ins[i] = core.PacketIn{Data: in.flows[f].pkt}
			if in.flows[f].kind != kindML {
				continue
			}
			k, ok := drawn[f]
			if !ok {
				rec := gen.Record()
				k = int32(len(in.samples))
				in.samples = append(in.samples, sample{feats: rec.Features, anomalous: rec.Anomalous()})
				drawn[f] = k
			}
			so[i] = k
			ins[i].Features = in.samples[k].feats
		}
		in.batches[b], in.flowOf[b], in.sampleOf[b] = ins, of, so
	}
	return in, nil
}

// labelSource hands out the pre-generated telemetry in order, wrapping
// around when it runs out.
func (in *serveInput) labelSource(n int) []dataset.Record {
	out := make([]dataset.Record, n)
	for i := range out {
		out[i] = in.labels[in.next%len(in.labels)]
		in.next++
	}
	return out
}

func udpPacket(src, dst uint32, sport, dport uint16, payload int) []byte {
	pkt := make([]byte, 14+20+8+payload)
	binary.BigEndian.PutUint16(pkt[12:], 0x0800)
	ip := pkt[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(20+8+payload))
	ip[8] = 64
	ip[9] = 17
	binary.BigEndian.PutUint32(ip[12:], src)
	binary.BigEndian.PutUint32(ip[16:], dst)
	udp := ip[20:]
	binary.BigEndian.PutUint16(udp[0:], sport)
	binary.BigEndian.PutUint16(udp[2:], dport)
	binary.BigEndian.PutUint16(udp[4:], uint16(8+payload))
	return pkt
}

func arpFrame(sender, target uint32) []byte {
	pkt := make([]byte, 14+28)
	binary.BigEndian.PutUint16(pkt[12:], 0x0806)
	arp := pkt[14:]
	binary.BigEndian.PutUint16(arp[0:], 1)      // Ethernet
	binary.BigEndian.PutUint16(arp[2:], 0x0800) // IPv4
	arp[4], arp[5] = 6, 4
	binary.BigEndian.PutUint16(arp[6:], 1) // request
	binary.BigEndian.PutUint32(arp[14:], sender)
	binary.BigEndian.PutUint32(arp[24:], target)
	return pkt
}

// expect fills every sample's reference score from the deployed graph.
func (in *serveInput) expect(d *deployment) error {
	for k := range in.samples {
		s, err := expectedScore(d.graph, d.inQ, in.samples[k].feats)
		if err != nil {
			return err
		}
		in.samples[k].score = s
	}
	return nil
}

// mismatches counts the decisions of batch b that disagree with the
// reference: ML packets must carry their sample's reference score and its
// verdict, bypass traffic must be forwarded unscored, malformed frames
// dropped.
func (in *serveInput) mismatches(b int, out []core.Decision) int {
	bad := 0
	for i, f := range in.flowOf[b] {
		d := out[i]
		if k := in.sampleOf[b][i]; k >= 0 {
			want := in.samples[k].score
			if d.Bypassed || d.MLScore != want || d.Verdict != verdictFor(want) {
				bad++
			}
		} else if kindMismatch(in.flows[f].kind, d) {
			bad++
		}
	}
	return bad
}

// serveRun holds the sizes of a serve run; tests shrink them.
type serveRun struct {
	setups      int // deployments made; setup_s is their median
	poolBatches int
	retrains    int // forced retrain cycles during the serve loop
	probes      int // pool batches the traced layer probes time
}

var defaultServeRun = serveRun{setups: 5, poolBatches: 16, retrains: 12, probes: 8}

func runServe(o options, spec serveSpec, sz serveRun, tr *tracer) (*outcome, error) {
	res := newOutcome()
	m := res.metrics

	t := time.Now()
	in, err := genServe(spec, o.seed, sz.poolBatches, sz.retrains)
	if err != nil {
		return nil, err
	}
	m.set("trafficgen.gen_ms", ms(time.Since(t)), "ms")

	var d *deployment
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if d != nil {
			d.pipe.Close()
		}
		var dt time.Duration
		if d, dt, err = deploy(in.train, tr, fmt.Sprintf("setup-%d", k)); err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
	}
	defer d.pipe.Close()
	m.set("setup_s", median(setups), "s")
	if err := in.expect(d); err != nil {
		return nil, err
	}

	out := make([]core.Decision, batchSize)
	var last pipeline.BatchStats
	serve := func(b int) time.Duration {
		start := time.Now()
		bs, err := d.pipe.ProcessBatch(in.batches[b], out)
		dt := time.Since(start)
		last = bs
		res.op(err == nil && in.mismatches(b, out) == 0)
		return dt
	}

	// Warm-up: one pass over the pool, untimed. It also scores the
	// deployed model against the flows' ground truth.
	runtime.GC()
	var conf ml.BinaryConfusion
	for b := range in.batches {
		serve(b)
		for i, k := range in.sampleOf[b] {
			if k >= 0 {
				conf.Observe(out[i].Verdict != core.Forward, in.samples[k].anomalous)
			}
		}
	}
	m.set("loop_f1", conf.F1(), "%")

	// The closed loop: one client, the next batch only after the last
	// returned, for the run's seconds. The serve workloads have no drift,
	// so their recover_p50_ms times retrain cycles the benchmark forces:
	// one between each of equal slices of the loop, spread over the run
	// like the batches. Each push is followed by an untimed batch, so no
	// timed batch pays for the control plane's work.
	cl := &controlLoop{tr: tr}
	if err := cl.attach(d, in.labelSource); err != nil {
		return nil, err
	}
	clock := &batchClock{tr: tr, all: make([]time.Duration, 0, 1<<16)}
	var recovery []float64
	slice := o.duration() / time.Duration(sz.retrains+1)
	i := 0
	for k := 0; k <= sz.retrains; k++ {
		deadline := time.Now().Add(slice)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			start := time.Now()
			dt := serve(i % len(in.batches))
			clock.record(i, start, dt)
			i++
		}
		if k == sz.retrains {
			break
		}
		group := fmt.Sprintf("retrain-%d", k)
		start := time.Now()
		cl.observe(out, group)
		err := cl.retrain(group, start)
		res.op(err == nil)
		if err == nil {
			recovery = append(recovery, ms(time.Since(start)))
		}
		// Later batches must match the pushed model's reference.
		if err := in.rescore(d); err != nil {
			return nil, err
		}
		// Collect the retrain's garbage now, not during timed batches.
		runtime.GC()
		serve(i % len(in.batches))
		i++
	}
	clock.metrics(m)
	m.set("recover_p50_ms", median(recovery), "ms")
	if tr != nil {
		if err := probeLayers(m, d, in.batches, sz.probes, res); err != nil {
			return nil, err
		}
	}
	res.modelled = modelled(d, last)
	cl.metrics(m, 0)
	setupMetrics(tr, m)
	return res, nil
}

// rescore replaces every sample's reference score with the decision the
// most recently lowered model must produce, after a push.
func (in *serveInput) rescore(d *deployment) error {
	for k := range in.samples {
		s, err := d.raw.ReferenceDecision(d.inQ, in.samples[k].feats)
		if err != nil {
			return err
		}
		in.samples[k].score = s
	}
	return nil
}

// kindMismatch checks a packet that takes no ML path: bypass traffic is
// forwarded unscored, a malformed frame is dropped.
func kindMismatch(k pktKind, d core.Decision) bool {
	if k == kindTrunc {
		return d.Bypassed || d.Verdict != core.Drop
	}
	return !d.Bypassed || d.Verdict != core.Forward
}

// batchClock collects the closed loop's ProcessBatch times. In a traced
// run, even batches are also recorded as spans and odd ones not; the gap
// between the two halves' rates is the tracing overhead.
type batchClock struct {
	tr                 *tracer
	all, plain, traced []time.Duration
}

func (c *batchClock) record(i int, start time.Time, dt time.Duration) {
	c.all = append(c.all, dt)
	if c.tr != nil && i%2 == 0 {
		c.tr.add("pipeline.ProcessBatch", -1, fmt.Sprintf("batch-%d", i), start, start.Add(dt))
		c.traced = append(c.traced, dt)
	} else {
		c.plain = append(c.plain, dt)
	}
}

// windows splits times into consecutive windows of size, dropping a
// shorter remainder unless it is the only window.
func windows(times []time.Duration, size int) [][]time.Duration {
	var out [][]time.Duration
	for lo := 0; lo+size <= len(times); lo += size {
		out = append(out, times[lo:lo+size])
	}
	if len(out) == 0 {
		out = append(out, times)
	}
	return out
}

func pps(times []time.Duration) float64 {
	return float64(len(times)*batchSize) / sum(times).Seconds()
}

// Steadier than whole-run figures on a shared machine: the rate and the
// tail are taken per window of consecutive batches, and the median window
// is reported.
const windowBatches = 100

// metrics derives the loop's end-to-end figures, and in a traced run the
// pipeline's batch time and the tracing overhead.
func (c *batchClock) metrics(m *metrics) {
	times := c.all
	var rates, tails []float64
	// The tail is the highest percentile with at least ten batches beyond
	// it in a window: p90.
	const p = 90.0
	for _, w := range windows(times, windowBatches) {
		rates = append(rates, pps(w))
		tails = append(tails, quantile(vals(w, us), p/100))
	}
	m.set("serve_pps", median(rates), "pkt/s")
	m.set("batch_p50_us", median(vals(times, us)), "us")
	m.set("batch_tail_us", median(tails), "us")
	m.note("batch_tail_percentile", p)
	m.note("batch_tail_windows", float64(len(tails)))
	m.note("batch_samples", float64(len(times)))
	if c.tr != nil && len(c.traced) > 0 && len(c.plain) > 0 {
		m.set("pipeline.batch_us", median(vals(times, us)), "us")
		m.set("trace.serve_pps", pps(c.traced), "pkt/s")
		m.set("trace.overhead_frac", 1-pps(c.traced)/pps(c.plain), "ratio")
	}
}

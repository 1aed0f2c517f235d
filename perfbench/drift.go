package main

import (
	"fmt"
	"time"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/ml"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

const driftFlows = 256

// The drift schedule, in rounds: hold phase 0, ramp up, hold phase 1, ramp
// down, and again.
const (
	driftHold   = 4
	driftRamp   = 5
	driftPeriod = 2 * (driftHold + driftRamp)
)

// phaseAt is the drift phase of round r: it ramps 0 -> 1 -> 0 again and
// again, so every period holds two drift episodes.
func phaseAt(r int) float64 {
	switch k := r % driftPeriod; {
	case k < driftHold:
		return 0
	case k < driftHold+driftRamp:
		return float64(k-driftHold+1) / driftRamp
	case k < 2*driftHold+driftRamp:
		return 1
	default:
		return 1 - float64(k-2*driftHold-driftRamp+1)/driftRamp
	}
}

// driftRun holds the sizes of a drift run; tests shrink them.
type driftRun struct {
	rounds int // rounds per pass; each pass starts from a fresh deployment
	// streams is how many independently seeded streams the passes cycle
	// through. loop_f1 is the median over one pass of each: a pass whose
	// detector misses an episode scores far below the rest, so one stream
	// alone makes loop_f1 swing from seed to seed.
	streams int
	probes  int // rounds the traced layer probes time
}

var defaultDriftRun = driftRun{rounds: 4 * driftPeriod, streams: 16, probes: 8}

// driftInput is the traffic of one pass, generated from the seed before
// any timing starts: each round, every flow redraws its record.
type driftInput struct {
	train []dataset.Record
	pkts  [][]byte      // per flow
	feats [][][]float32 // per round, per flow
	truth [][]bool      // per round, per flow: anomalous
}

// streamSeed is the seed of stream k of a run.
func streamSeed(seed int64, k int) int64 { return seed + int64(k)*trafficgen.MemberSeedStride }

func genDrift(seed int64, rounds int) (*driftInput, error) {
	s, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), seed, driftFlows)
	if err != nil {
		return nil, err
	}
	in := &driftInput{train: s.Labelled(initRecords)}
	for r := 0; r < rounds; r++ {
		s.SetPhase(phaseAt(r))
		// The stream deals packets to its flows round-robin, so the first
		// driftFlows packets carry one record of each flow.
		ins, _, truth := s.NextBatch(driftFlows)
		feats := make([][]float32, driftFlows)
		for f := range ins {
			feats[f] = ins[f].Features
			if r == 0 {
				in.pkts = append(in.pkts, ins[f].Data)
			}
		}
		in.feats = append(in.feats, feats)
		in.truth = append(in.truth, truth)
	}
	return in, nil
}

// batch deals round r's packets into buf, round-robin over the flows as
// the stream does.
func (in *driftInput) batch(r int, buf []core.PacketIn) []core.PacketIn {
	for i := range buf {
		f := i % driftFlows
		buf[i] = core.PacketIn{Data: in.pkts[f], Features: in.feats[r][f]}
	}
	return buf
}

// refMismatches checks every 16th decision of a round against the
// deployed model's ReferenceDecision (all packets here take the ML path).
func refMismatches(d *deployment, batch []core.PacketIn, out []core.Decision) int {
	bad := 0
	for i := 0; i < len(batch); i += 16 {
		want, err := d.raw.ReferenceDecision(d.inQ, batch[i].Features)
		if err != nil || out[i].Bypassed || out[i].MLScore != want || out[i].Verdict != verdictFor(want) {
			bad++
		}
	}
	return bad
}

// roundF1 scores a round's verdicts against its flows' ground truth.
func roundF1(out []core.Decision, truth []bool) float64 {
	var conf ml.BinaryConfusion
	for i := range out {
		if !out[i].Bypassed {
			conf.Observe(out[i].Verdict != core.Forward, truth[i%driftFlows])
		}
	}
	return conf.F1()
}

// runDrift repeats passes of the drift schedule until the run's seconds are
// spent, and at least once per stream. Each pass deploys afresh (a setup_s
// sample) and starts a fresh label feed, so every pass over one stream
// makes the same decisions.
func runDrift(o options, sz driftRun, tr *tracer) (*outcome, error) {
	res := newOutcome()
	m := res.metrics

	t := time.Now()
	inputs := make([]*driftInput, sz.streams)
	for k := range inputs {
		var err error
		if inputs[k], err = genDrift(streamSeed(o.seed, k), sz.rounds); err != nil {
			return nil, err
		}
	}
	m.set("trafficgen.gen_ms", ms(time.Since(t)), "ms")

	var setups, recovery, detect, passF1 []float64
	clock := &batchClock{tr: tr}
	var last pipeline.BatchStats
	cl := &controlLoop{tr: tr}
	out := make([]core.Decision, batchSize)
	buf := make([]core.PacketIn, batchSize)
	deadline := time.Now().Add(o.duration())
	for p := 0; p < sz.streams || time.Now().Before(deadline); p++ {
		k := p % sz.streams
		in, seed := inputs[k], streamSeed(o.seed, k)
		d, dt, err := deploy(in.train, tr, fmt.Sprintf("pass-%d/setup", p))
		if err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
		labels, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), seed, driftFlows)
		if err != nil {
			d.pipe.Close()
			return nil, err
		}
		if err := cl.attach(d, labels.Labelled); err != nil {
			d.pipe.Close()
			return nil, err
		}
		var f1 float64
		changed := -1 // round the current episode's phase change began
		for r := range in.feats {
			var group string
			if tr != nil {
				group = fmt.Sprintf("pass-%d/round-%d", p, r)
			}
			phase := phaseAt(r)
			if r > 0 && phase != phaseAt(r-1) && changed < 0 {
				changed = r
			}
			labels.SetPhase(phase)
			batch := in.batch(r, buf)
			start := time.Now()
			bs, err := d.pipe.ProcessBatch(batch, out)
			dt := time.Since(start)
			clock.record(len(clock.all), start, dt)
			last = bs
			res.op(err == nil && refMismatches(d, batch, out) == 0)
			f1 += roundF1(out, in.truth[r])

			start = time.Now()
			if !cl.observe(out, group) {
				continue
			}
			if changed >= 0 {
				detect = append(detect, float64(r-changed+1))
				changed = -1
			}
			err = cl.retrain(group, start)
			res.op(err == nil)
			if err == nil {
				recovery = append(recovery, ms(time.Since(start)))
			}
		}
		passF1 = append(passF1, f1/float64(len(in.feats)))
		done := p >= sz.streams-1 && time.Now().After(deadline)
		if tr != nil && done {
			clock.metrics(m)
			probes := make([][]core.PacketIn, min(sz.probes, len(in.feats)))
			for r := range probes {
				probes[r] = in.batch(r, make([]core.PacketIn, batchSize))
			}
			if err := probeLayers(m, d, probes, len(probes), res); err != nil {
				d.pipe.Close()
				return nil, err
			}
		}
		if done {
			res.modelled = modelled(d, last)
		}
		d.pipe.Close()
	}

	m.set("setup_s", median(setups), "s")
	clock.metrics(m)
	if len(recovery) == 0 {
		return nil, fmt.Errorf("no drift episode recovered in %d rounds", len(clock.all))
	}
	m.set("recover_p50_ms", median(recovery), "ms")
	m.note("recover_episodes", float64(len(recovery)))
	m.note("passes", float64(len(passF1)))
	// Passes over one stream replay the same inputs from the same
	// deployment, so they should score the same F1.
	m.set("loop_f1", median(passF1[:sz.streams]), "%")
	agree := 1.0
	for p := sz.streams; p < len(passF1); p++ {
		if passF1[p] != passF1[p%sz.streams] {
			agree = 0
		}
	}
	m.note("loop_f1_passes_agree", agree)
	cl.metrics(m, mean(detect))
	setupMetrics(tr, m)
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

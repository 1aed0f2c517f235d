package core

import (
	"errors"
	"math/rand"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/dataset"
	"taurus/internal/graphcheck"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/pisa"
	"taurus/internal/sched"
	"taurus/internal/sched/tapecheck"
	"taurus/internal/tensor"
)

// buildAnomalyDevice trains the 6-12-6-3-1 DNN, lowers it and installs it.
func buildAnomalyDevice(t *testing.T) (*Device, *ml.QuantizedDNN, *dataset.AnomalyGenerator) {
	t.Helper()
	rng := rand.New(rand.NewSource(200))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(800))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	return dev, q, gen
}

func TestDeviceConfigValidation(t *testing.T) {
	if _, err := NewDevice(Config{NumFeatures: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero features: %v, want ErrBadConfig", err)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{
		Forward:     "forward",
		Flag:        "flag",
		Drop:        "drop",
		Verdict(3):  "invalid(3)",
		Verdict(-1): "invalid(-1)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.InnerProduct(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g); !errors.Is(err, ErrNoModel) {
		t.Errorf("UpdateWeights before LoadModel: %v, want ErrNoModel", err)
	}
	wide, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(wide, dev.inQ, compiler.Options{}); !errors.Is(err, ErrBadFeatureWidth) {
		t.Errorf("wide model: %v, want ErrBadFeatureWidth", err)
	}
	if err := dev.AccumulateFeatures(0, make([]float32, 3)); !errors.Is(err, ErrBadFeatureWidth) {
		t.Errorf("short features: %v, want ErrBadFeatureWidth", err)
	}
}

func TestUpdateWeightsStructureSentinel(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	rng := rand.New(rand.NewSource(5))
	small := ml.NewDNN([]int{6, 4, 1}, ml.ReLU, ml.Sigmoid, rng)
	qs, err := ml.Quantize(small, []tensor.Vec{{1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lower.DNN(qs, "small")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(gs); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("structural change: %v, want ErrStructureMismatch", err)
	}
}

// mlBatch builds n ML-path TCP packets, one flow each, carrying fresh
// anomaly features.
func mlBatch(gen *dataset.AnomalyGenerator, n int) []PacketIn {
	ins := make([]PacketIn, n)
	for i := range ins {
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64),
			Features: gen.Record().Features,
		}
	}
	return ins
}

// TestUpdateWeightsRejectsOpChange: a push that swaps a map operator is not
// weight-only. The tape bakes operators into its opcodes, so accepting the
// push would report success while the device kept serving the old operator.
func TestUpdateWeightsRejectsOpChange(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	ins := mlBatch(gen, 64)
	before := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, before); err != nil {
		t.Fatal(err)
	}
	g := dev.Model().Graph.Clone()
	changed := false
	for _, n := range g.Nodes {
		if n.Kind == mr.KMap && n.Map == mr.MAdd {
			n.Map = mr.MSub
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("lowered DNN has no map/add node")
	}
	err := dev.UpdateWeights(g)
	if !errors.Is(err, ErrStructureMismatch) || !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Fatalf("op-changing push: %v, want ErrStructureMismatch and graphcheck.ErrIncompatible", err)
	}
	after := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, after); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if after[i] != before[i] {
			t.Fatalf("packet %d: decision %+v after a refused push, was %+v", i, after[i], before[i])
		}
	}
}

// TestUpdateWeightsRejectsNilLUT: a push whose LUT node has no table is
// refused with an error, not a nil dereference.
func TestUpdateWeightsRejectsNilLUT(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	g := dev.Model().Graph.Clone()
	changed := false
	for _, n := range g.Nodes {
		if n.Kind == mr.KLUT {
			n.LUT = nil
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("lowered DNN has no LUT node")
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("UpdateWeights panicked on a nil LUT: %v", r)
		}
	}()
	if err := dev.UpdateWeights(g); !errors.Is(err, ErrStructureMismatch) {
		t.Fatalf("nil-LUT push: %v, want ErrStructureMismatch", err)
	}
}

func TestProcessBatchMatchesProcess(t *testing.T) {
	devA, q, gen := buildAnomalyDevice(t)
	devB, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly-copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := devB.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	ins := mlBatch(gen, 100)
	out := make([]Decision, len(ins))
	if err := devB.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		want, err := devA.Process(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("packet %d: batch %+v != single %+v", i, out[i], want)
		}
	}
}

func TestProcessBatchDropsMalformed(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	ins := []PacketIn{
		{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64), Features: rec.Features},
		{Data: []byte{0xde, 0xad}},
		{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)},
	}
	out := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	if out[1].Verdict != Drop {
		t.Errorf("malformed packet verdict = %v, want drop", out[1].Verdict)
	}
	if dev.Stats().ParseErrors != 1 {
		t.Errorf("ParseErrors = %d, want 1", dev.Stats().ParseErrors)
	}
	if _, err := dev.Process(ins[1]); !errors.Is(err, pisa.ErrTruncated) {
		t.Errorf("short frame: %v, want pisa.ErrTruncated", err)
	}
	if err := dev.ProcessBatch(ins, out[:1]); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short out slice: %v, want ErrBadConfig", err)
	}
	// A wrong-width feature vector is a caller bug, not traffic: abort.
	bad := []PacketIn{{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64), Features: make([]float32, 3)}}
	if err := dev.ProcessBatch(bad, out[:1]); !errors.Is(err, ErrBadFeatureWidth) {
		t.Errorf("bad feature width: %v, want ErrBadFeatureWidth", err)
	}
}

// TestProcessBatchZeroAlloc covers every path a packet can take: ML-path
// TCP, UDP and ARP bypass, and truncated frames the parser drops.
func TestProcessBatchZeroAlloc(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	ins := make([]PacketIn, 64)
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	for i := range ins {
		switch i % 4 {
		case 0:
			ins[i] = PacketIn{
				Data:     pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0x10, 64),
				Features: gen.Record().Features,
			}
		case 1:
			ins[i] = PacketIn{Data: pisa.BuildUDPPacket(uint32(i), 2, 3, 53, 64)}
		case 2:
			ins[i] = PacketIn{Data: arp}
		case 3:
			ins[i] = PacketIn{Data: pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0x10, 0)[:i%54]}
		}
	}
	out := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, out); err != nil { // warm up
		t.Fatal(err)
	}
	if got, want := dev.Stats().ParseErrors, len(ins)/4; got != want {
		t.Fatalf("ParseErrors = %d, want %d (one per truncated frame)", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := dev.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state ProcessBatch allocates %.2f times per batch, want 0", allocs)
	}
}

func TestShardHashMatchesFlowKey(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	pkt := pisa.BuildTCPPacket(0x0a010203, 0x0a800001, 3456, 443, 0x10, 64)
	want := dev.FlowKey(0x0a010203, 0x0a800001, 3456, 443, 6)
	if got := ShardHash(pkt); got != want {
		t.Errorf("ShardHash = %#x, FlowKey = %#x", got, want)
	}
	if got := ShardHash([]byte{1, 2, 3}); got != 0 {
		t.Errorf("short packet hash = %#x, want 0", got)
	}
	arp := make([]byte, 40)
	arp[12], arp[13] = 0x08, 0x06
	if got := ShardHash(arp); got != 0 {
		t.Errorf("non-IP hash = %#x, want 0", got)
	}
}

func TestModelBusyAccounting(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	if _, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features}); err != nil {
		t.Fatal(err)
	}
	want := float64(dev.ScheduledII())
	if got := dev.Stats().ModelBusyNs; got != want {
		t.Errorf("ML packet busy = %v ns, want II = %v", got, want)
	}
	arp := make([]byte, 14)
	arp[12], arp[13] = 0x08, 0x06
	if _, err := dev.Process(PacketIn{Data: arp}); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().ModelBusyNs; got != want+1 {
		t.Errorf("bypass packet busy = %v ns, want %v", got, want+1)
	}
}

func TestDeviceClassifiesLikeReference(t *testing.T) {
	dev, q, gen := buildAnomalyDevice(t)
	agree, total := 0, 0
	var sport uint16 = 1000
	for i := 0; i < 300; i++ {
		rec := gen.Record()
		sport++
		pkt := pisa.BuildTCPPacket(0x0a000001+uint32(i), 0x0a800001, sport, 443, 0x10, 64)
		dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Bypassed {
			t.Fatal("TCP packet with features should take the ML path")
		}
		// The device verdict must equal thresholding the reference model.
		codes := q.InputQ.QuantizeSlice(rec.Features)
		want := q.ForwardCodes(codes)[0]
		wantAnom := int32(want) >= 64
		gotAnom := dec.Verdict != Forward
		if wantAnom == gotAnom {
			agree++
		}
		total++
	}
	if agree != total {
		t.Errorf("device verdicts agree with reference on %d/%d", agree, total)
	}
}

func TestDeviceLatencyAccounting(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0, 64)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
	if err != nil {
		t.Fatal(err)
	}
	if dec.LatencyNs <= BaseSwitchLatencyNs {
		t.Errorf("ML packet latency %v should exceed base %v", dec.LatencyNs, BaseSwitchLatencyNs)
	}
	if dev.ModelLatencyNs() <= 0 || dev.ScheduledII() != 1 {
		t.Errorf("model stats: lat=%v II=%d", dev.ModelLatencyNs(), dev.ScheduledII())
	}
	// Same flow, second packet: features already accumulated.
	dec2, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Bypassed {
		t.Error("second packet of known flow should take ML path")
	}
}

func TestDeviceBypassNonTCP(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	// ARP-ish frame: bypass with no added latency and a Forward verdict.
	pkt := make([]byte, 14)
	pkt[12], pkt[13] = 0x08, 0x06
	dec, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed || dec.Verdict != Forward {
		t.Errorf("non-IP packet: bypassed=%v verdict=%v", dec.Bypassed, dec.Verdict)
	}
	if dec.LatencyNs != BaseSwitchLatencyNs {
		t.Errorf("bypass latency = %v, want base only", dec.LatencyNs)
	}
}

func TestDeviceBypassUnknownFlow(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	pkt := pisa.BuildTCPPacket(9, 9, 9, 9, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed {
		t.Error("flow with no accumulated features should bypass")
	}
}

func TestDeviceNoModelBypasses(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: make([]float32, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed {
		t.Error("device without a model should bypass")
	}
}

func TestDeviceStats(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	for i := 0; i < 20; i++ {
		rec := gen.Record()
		pkt := pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0, 0)
		if _, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features}); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.Processed != 20 || s.MLInferences != 20 {
		t.Errorf("stats = %+v", s)
	}
	if s.Forwarded+s.Flagged+s.Dropped != 20 {
		t.Errorf("verdict counts don't add up: %+v", s)
	}
}

// TestInstallRefusesRejectedTape swaps sched's compile gate for one that
// rejects every tape and checks that an install is refused outright: the
// error wraps the verifier's, a loaded device keeps serving its old model
// bit-for-bit, and a fresh device stays modelless, bypassing every packet.
func TestInstallRefusesRejectedTape(t *testing.T) {
	dev, q, gen := buildAnomalyDevice(t)
	recs := gen.Records(32)
	ins := make([]PacketIn, len(recs))
	for i, r := range recs {
		ins[i] = PacketIn{Data: pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64), Features: r.Features}
	}
	before := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, before); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().MLInferences == 0 {
		t.Fatal("no ML inferences — test traffic broken")
	}

	boom := errors.New("synthetic tape rejection")
	sched.SetVerifier(func(p *sched.Program) error { return boom })
	defer sched.SetVerifier(tapecheck.Check)

	if err := dev.InstallModel(dev.Model(), q.InputQ); !errors.Is(err, boom) {
		t.Fatalf("reinstall under a rejecting verifier: %v, want the verifier's error", err)
	}
	after := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, after); err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("packet %d decision changed after refused install: %+v -> %+v", i, before[i], after[i])
		}
	}

	fresh, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.InstallModel(dev.Model(), q.InputQ); !errors.Is(err, boom) {
		t.Fatalf("fresh install under a rejecting verifier: %v, want the verifier's error", err)
	}
	if fresh.Model() != nil || fresh.CompiledProgram() != nil || fresh.ScheduledII() != 0 {
		t.Error("refused install left a model on a fresh device")
	}
	if err := fresh.ProcessBatch(ins, after); err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if !after[i].Bypassed {
			t.Fatalf("packet %d not bypassed on a modelless device after a refused install", i)
		}
	}
}

func TestDeviceParseError(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	if _, err := dev.Process(PacketIn{Data: []byte{1, 2}}); err == nil {
		t.Error("truncated packet should error")
	}
	if dev.Stats().ParseErrors != 1 {
		t.Error("parse error not counted")
	}
}

func TestLoadModelValidation(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input width.
	g, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, dev.inQ, compiler.Options{}); err == nil {
		t.Error("width-16 model on 6-feature device should fail")
	}
}

func TestUpdateWeights(t *testing.T) {
	dev, q, gen := buildAnomalyDevice(t)

	// Retrain a structurally identical model with different weights.
	rng := rand.New(rand.NewSource(201))
	X, y := dataset.Split(gen.Records(400))
	n2 := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n2, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 10}, rng).Fit(X, y)
	q2, err := ml.Quantize(n2, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lower.DNN(q2, "anomaly-v2")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g2); err != nil {
		t.Fatal(err)
	}
	// After the update the device computes with the new weights. (Input
	// quantisers calibrate to the same feature range, so codes agree.)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(77, 2, 3, 4, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
	if err != nil {
		t.Fatal(err)
	}
	codes := q.InputQ.QuantizeSlice(rec.Features)
	want := q2.ForwardCodes(codes)[0]
	if dec.MLScore != int32(want) {
		t.Errorf("score after update = %d, want %d", dec.MLScore, want)
	}

	// Structural change must be rejected.
	small := ml.NewDNN([]int{6, 4, 1}, ml.ReLU, ml.Sigmoid, rng)
	qs, err := ml.Quantize(small, X[:50])
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lower.DNN(qs, "small")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(gs); err == nil {
		t.Error("structural change should be rejected")
	}
}

// TestUpdateWeightsIsolatesTrainerGraph pins the §3.3.1 push contract: the
// pushed graph is only read, so a trainer that keeps mutating its own graph
// after UpdateWeights returns must not change what the device computes.
func TestUpdateWeightsIsolatesTrainerGraph(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)

	rng := rand.New(rand.NewSource(77))
	X, y := dataset.Split(gen.Records(400))
	n2 := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n2, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 5}, rng).Fit(X, y)
	q2, err := ml.Quantize(n2, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lower.DNN(q2, "trainer")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g2); err != nil {
		t.Fatal(err)
	}

	recs := gen.Records(32)
	pkt := pisa.BuildTCPPacket(77, 2, 3, 4, 0, 0)
	score := func(r dataset.Record) int32 {
		t.Helper()
		dec, err := dev.Process(PacketIn{Data: pkt, Features: r.Features})
		if err != nil {
			t.Fatal(err)
		}
		return dec.MLScore
	}
	want := make([]int32, len(recs))
	for i, r := range recs {
		want[i] = score(r)
	}

	// The trainer keeps going: clobber every weight payload of its graph.
	for _, n := range g2.Nodes {
		for i := range n.Const {
			n.Const[i] = 99
		}
		if n.LUT != nil {
			for i := range n.LUT.Table {
				n.LUT.Table[i] = -128
			}
			n.LUT.Mult.M0, n.LUT.Mult.Shift = 1<<30, 1
		}
		n.Mult.M0, n.Mult.Shift = 1<<30, 1
	}

	for i, r := range recs {
		if got := score(r); got != want[i] {
			t.Fatalf("record %d: score changed from %d to %d after trainer mutated its graph", i, want[i], got)
		}
	}
}

func TestUpdateWeightsNoModel(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := lower.InnerProduct(6)
	if err := dev.UpdateWeights(g); err == nil {
		t.Error("update without a model should fail")
	}
}

func TestFlowKeyStability(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	a := dev.FlowKey(1, 2, 3, 4, 6)
	b := dev.FlowKey(1, 2, 3, 4, 6)
	c := dev.FlowKey(1, 2, 3, 5, 6)
	if a != b {
		t.Error("same tuple should hash identically")
	}
	if a == c {
		t.Error("different tuples should (almost surely) differ")
	}
}

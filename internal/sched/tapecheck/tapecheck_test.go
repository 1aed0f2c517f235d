package tapecheck_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"taurus/internal/cgra"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/sched"
	"taurus/internal/sched/tapecheck"
	"taurus/internal/tensor"
)

func compile(t testing.TB, g *mr.Graph) *sched.Program {
	t.Helper()
	p, err := sched.CompileUnverified(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("Compile(%s): %v", g.Name, err)
	}
	return p
}

func build(t testing.TB, name string, f func(b *mr.Builder)) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder(name)
	f(b)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

func mustMult(t testing.TB, f float64) fixed.Multiplier {
	t.Helper()
	m, err := fixed.NewMultiplier(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// zooGraph compiles to a tape exercising every instruction family the
// verifier special-cases: a materialised add (multi-consumer), a sub, a
// plain dot, a const-window dot (through a slice), a bias-folded dot+add,
// requant, scale, LUT, relu, and a concat with one genuine copy.
func zooGraph(t testing.TB) *mr.Graph {
	mult := mustMult(t, 0.03)
	lut := &mr.LUT{Mult: mustMult(t, 1.0/64)}
	for i := range lut.Table {
		lut.Table[i] = int8(i % 120)
	}
	return build(t, "zoo", func(b *mr.Builder) {
		x := b.Input("x", 8)
		w := b.Const("w", []int32{0, 1, 2, 3, 4, 1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11})
		win := b.Slice(w, 4, 8)
		sum := b.Map(mr.MAdd, x, win)                      // OpAdd, four consumers
		diff := b.Map(mr.MSub, x, win)                     // OpSub
		dotSelf := b.Reduce(mr.RAdd, b.Map(mr.MMul, x, x)) // OpDot (no bias consumer)
		dotW := b.Reduce(mr.RAdd, b.Map(mr.MMul, x, win))  // OpDot with const-window B
		neuron := b.Map(mr.MAdd,
			b.Reduce(mr.RAdd, b.Map(mr.MMul, x, b.Const("nw", []int32{1, 2, 3, 4, 5, 6, 7, 8}))),
			b.Scalar("bias", 9)) // OpDotAdd
		b.Output(
			b.Concat(b.Requant(sum, mult), b.Scale(sum, mult), b.ApplyLUT(sum, lut),
				b.Unary(mr.UReLU, sum), x), // trailing input forces one OpCopy
			diff, dotSelf, dotW, neuron)
	})
}

// nodeNamed returns the id of the input or const node called name.
func nodeNamed(t *testing.T, g *mr.Graph, name string) mr.NodeID {
	t.Helper()
	for _, n := range g.Nodes {
		if (n.Kind == mr.KInput || n.Kind == mr.KConst) && n.Name == name {
			return n.ID
		}
	}
	t.Fatalf("graph %q has no leaf node %q", g.Name, name)
	return -1
}

func findPC(t *testing.T, p *sched.Program, op sched.Opcode) int {
	t.Helper()
	for pc := range p.Code() {
		if p.Code()[pc].Op == op {
			return pc
		}
	}
	t.Fatalf("tape has no %s instruction", op)
	return -1
}

// TestMutationKill hand-seeds distinct miscompilations into legitimately
// compiled tapes — fusion bugs, operand swaps, alias violations, arena
// corruption, schedule lies — and demands each is rejected with a finding
// from the right analysis, anchored to the offending instruction.
func TestMutationKill(t *testing.T) {
	cases := []struct {
		name   string
		check  tapecheck.Analysis
		wantPC bool // finding must name an instruction (PC >= 0)
		mutate func(t *testing.T, p *sched.Program)
	}{
		{"opcode-swap-add-to-sub", tapecheck.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpAdd)].Op = sched.OpSub
		}},
		{"fusion-dropped-bias", tapecheck.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpDotAdd)].Op = sched.OpDot
		}},
		{"fusion-dot-to-sqdist", tapecheck.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpDot)].Op = sched.OpSqDist
		}},
		{"operand-swap-sub", tapecheck.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			ins := &p.Code()[findPC(t, p, sched.OpSub)]
			ins.A, ins.B = ins.B, ins.A
		}},
		{"weight-window-off-by-one", tapecheck.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// dotW reads const lanes w[4:12] through the slice; shift the
			// window one lane left — still inside the const, so only the
			// symbolic check can see it.
			for pc := range p.Code() {
				ins := &p.Code()[pc]
				if ins.Op == sched.OpDot && ins.B.Const != nil {
					ins.B.Off--
					return
				}
			}
			t.Fatal("no const-window dot on the tape")
		}},
		{"operand-stride-skew", tapecheck.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpRelu)].A.Stride++
		}},
		{"arena-clobber", tapecheck.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			add := p.Code()[findPC(t, p, sched.OpAdd)]
			relu := &p.Code()[findPC(t, p, sched.OpRelu)]
			relu.Dst, relu.DStride = add.Dst, add.DStride
		}},
		{"write-into-input-window", tapecheck.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			in := p.InputOperand(0)
			relu := &p.Code()[findPC(t, p, sched.OpRelu)]
			relu.Dst, relu.DStride = in.Off, in.Stride
		}},
		{"width-truncated", tapecheck.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpAdd)].W--
		}},
		{"alias-detached-weights", tapecheck.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			// A compile-time snapshot of the weights: bit-identical today,
			// invisible to every future UpdateWeights push.
			for pc := range p.Code() {
				ins := &p.Code()[pc]
				if ins.Op == sched.OpDot && ins.B.Const != nil {
					ins.B.Const = append([]int32(nil), ins.B.Const...)
					return
				}
			}
			t.Fatal("no const-window dot on the tape")
		}},
		{"alias-detached-multiplier", tapecheck.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			ins := &p.Code()[findPC(t, p, sched.OpRequant)]
			clone := *ins.Mult
			ins.Mult = &clone
		}},
		{"alias-detached-lut", tapecheck.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			ins := &p.Code()[findPC(t, p, sched.OpLUT)]
			clone := *ins.LUT
			ins.LUT = &clone
		}},
		{"schedule-claims-low-ii", tapecheck.CheckPlan, false, func(t *testing.T, p *sched.Program) {
			p.Schedule().II = 0
		}},
		{"schedule-claims-low-depth", tapecheck.CheckPlan, false, func(t *testing.T, p *sched.Program) {
			p.Schedule().Depth = 0
		}},
	}
	// wantMsg pins, per case, text the killing finding must carry.
	wantMsg := map[string]func(t *testing.T, p *sched.Program) string{
		// The first diverging lane reads w[3] where the graph reads w[4]:
		// the finding names both const leaves by graph node and lane.
		"weight-window-off-by-one": func(t *testing.T, p *sched.Program) string {
			w := nodeNamed(t, p.Graph(), "w")
			return fmt.Sprintf("diverges at w%d[3] vs w%d[4]", w, w)
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, zooGraph(t))
			if rep := tapecheck.Verify(p); !rep.OK() {
				t.Fatalf("zoo tape dirty before mutation:\n%s", rep)
			}
			tc.mutate(t, p)
			rep := tapecheck.Verify(p)
			if rep.OK() {
				t.Fatalf("mutation not rejected; report:\n%s", rep)
			}
			for _, f := range rep.Findings {
				if f.Severity != tapecheck.SevError || f.Check != tc.check {
					continue
				}
				if tc.wantPC && f.PC < 0 {
					continue
				}
				t.Logf("killed by: %s", f)
				if want := wantMsg[tc.name]; want != nil && !strings.Contains(f.Msg, want(t, p)) {
					t.Fatalf("finding does not say %q: %s", want(t, p), f)
				}
				return
			}
			t.Fatalf("no %s error finding (wantPC=%v); report:\n%s", tc.check, tc.wantPC, rep)
		})
	}
}

// dotGraph is a dot over x·w. With split set, an earlier map has already
// multiplied lanes 4..7, so the dot's products sit at two runs of ids, not
// one: the tape side's consecutive-id guess misses at lane 4.
func dotGraph(t testing.TB, split bool) *mr.Graph {
	return build(t, "dot", func(b *mr.Builder) {
		x := b.Input("x", 8)
		w := b.Const("w", []int32{3, -1, 4, -1, 5, -9, 2, -6})
		if split {
			b.Output(b.Map(mr.MMul, b.Slice(x, 4, 4), b.Slice(w, 4, 4)))
		}
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, w)))
	})
}

// TestHintMiss: when the id after the previous lane's product is not the
// product the next lane computes, equiv must fall back to the table — a
// faithful tape still verifies clean, and a node of the right kind with a
// wrong kid is never taken for the answer.
func TestHintMiss(t *testing.T) {
	t.Run("faithful-tape-verifies", func(t *testing.T) {
		p := compile(t, dotGraph(t, true))
		findPC(t, p, sched.OpDot)
		if rep := tapecheck.Verify(p); !rep.OK() || len(rep.Findings) != 0 {
			t.Fatalf("faithful tape has findings:\n%s", rep)
		}
	})
	t.Run("wrong-kid-rejected", func(t *testing.T) {
		p := compile(t, dotGraph(t, false))
		// Broadcast the dot's second operand: lane 0 still computes the
		// graph's product, and every later lane multiplies by lane 0's b,
		// so the node after each lane's product has the right kind and one
		// right kid but not the other.
		pc := findPC(t, p, sched.OpDot)
		p.Code()[pc].B.W = 1
		rep := tapecheck.Verify(p)
		for _, f := range rep.Findings {
			if f.Severity == tapecheck.SevError && f.Check == tapecheck.CheckEquiv && f.PC == pc {
				return
			}
		}
		t.Fatalf("no equiv error at pc %d; report:\n%s", pc, rep)
	})
}

// TestRangeFindingOnMutatedOp: a min against a huge constant is harmless,
// the same operands multiplied saturate — flipping the opcode must produce
// an interval finding (on a graph graphcheck accepts), not just an
// equivalence one.
func TestRangeFindingOnMutatedOp(t *testing.T) {
	g := build(t, "minbig", func(b *mr.Builder) {
		x := b.Input("x", 4)
		c := b.Const("c", []int32{1 << 30, 1 << 30, 1 << 30, 1 << 30})
		b.Output(b.Map(mr.MMin, x, c))
	})
	p := compile(t, g)
	if rep := tapecheck.Verify(p); !rep.OK() {
		t.Fatalf("dirty before mutation:\n%s", rep)
	}
	p.Code()[findPC(t, p, sched.OpMin)].Op = sched.OpMul
	rep := tapecheck.Verify(p)
	for _, f := range rep.Findings {
		if f.Check == tapecheck.CheckRange && f.Severity == tapecheck.SevError && f.PC >= 0 {
			if f.Range.Lo == 0 && f.Range.Hi == 0 {
				t.Fatalf("range finding carries no witness interval: %s", f)
			}
			return
		}
	}
	t.Fatalf("no range error finding:\n%s", rep)
}

// TestWarningDoesNotReject: warning-severity findings (here a cost-model
// bookkeeping mismatch in the schedule) are reported but do not reject.
func TestWarningDoesNotReject(t *testing.T) {
	p := compile(t, zooGraph(t))
	p.Schedule().CUIssues++
	rep := tapecheck.Verify(p)
	if !rep.OK() {
		t.Fatalf("warning rejected the tape:\n%s", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Severity == tapecheck.SevWarning && f.Check == tapecheck.CheckPlan {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warning finding:\n%s", rep)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("Err() on a warning-only report: %v", err)
	}
}

// TestNilAndForeignPrograms: the verifier degrades to findings, never
// panics, on degenerate programs.
func TestNilAndForeignPrograms(t *testing.T) {
	if rep := tapecheck.Verify(nil); rep.OK() {
		t.Fatal("nil program accepted")
	} else if !errors.Is(rep.Err(), tapecheck.ErrBadTape) {
		t.Fatalf("Err() does not wrap ErrBadTape: %v", rep.Err())
	}
}

// TestCompileGate: importing tapecheck registers it with sched; Compile
// refuses tapes the active verifier rejects, CompileUnverified opts out.
func TestCompileGate(t *testing.T) {
	g := zooGraph(t)
	if _, err := sched.Compile(g, cgra.DefaultGrid()); err != nil {
		t.Fatalf("gated Compile rejects a clean graph: %v", err)
	}

	boom := errors.New("boom")
	prev := sched.SetVerifier(func(*sched.Program) error { return boom })
	defer sched.SetVerifier(prev)
	if _, err := sched.Compile(g, cgra.DefaultGrid()); !errors.Is(err, boom) {
		t.Fatalf("Compile ignored the registered verifier: %v", err)
	}
	if _, err := sched.CompileUnverified(g, cgra.DefaultGrid()); err != nil {
		t.Fatalf("CompileUnverified ran the verifier: %v", err)
	}
}

// TestInheritedSaturationDoesNotGate: a graph that can saturate on its own
// (graphcheck's business, on the push path) still compiles — the tape merely
// inherits the graph's ranges, so rejecting it would make Compile refuse
// Validate-accepted graphs the interpreter happily runs.
func TestInheritedSaturationDoesNotGate(t *testing.T) {
	g := build(t, "sat", func(b *mr.Builder) {
		x := b.Input("x", 4)
		c := b.Const("c", []int32{1 << 30, -(1 << 30), 1 << 29, 1 << 28})
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, c)))
	})
	p, err := sched.Compile(g, cgra.DefaultGrid()) // gate active, must pass
	if err != nil {
		t.Fatalf("Compile rejects inherited saturation: %v", err)
	}
	rep := tapecheck.Verify(p)
	if rep.OK() {
		t.Fatalf("expected range findings on a saturating graph:\n%s", rep)
	}
	if err := tapecheck.Check(p); err != nil {
		t.Fatalf("Check gates inherited saturation: %v", err)
	}
}

// TestInputRangeOption mirrors graphcheck's Options.InputRange: widening the
// declared input domain must surface saturation the int8 default hides.
func TestInputRangeOption(t *testing.T) {
	g := build(t, "wide", func(b *mr.Builder) {
		x := b.Input("x", 4)
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, x)))
	})
	p := compile(t, g)
	if rep := tapecheck.Verify(p); !rep.OK() {
		t.Fatalf("int8 inputs dirty:\n%s", rep)
	}
	rep := tapecheck.VerifyWith(p, tapecheck.Options{
		InputRange: func(int, string) (tapecheck.Interval, bool) {
			return tapecheck.Interval{Lo: -(1 << 20), Hi: 1 << 20}, true
		},
	})
	if rep.OK() {
		t.Fatalf("widened inputs found nothing:\n%s", rep)
	}
}

// TestReportRendering pins the report surfaces taurus-compile prints.
func TestReportRendering(t *testing.T) {
	p := compile(t, zooGraph(t))
	p.Code()[findPC(t, p, sched.OpAdd)].Op = sched.OpSub
	rep := tapecheck.Verify(p)
	s := rep.String()
	for _, want := range []string{"REJECTED", `"zoo"`, "[equiv]", "pc "} {
		if !strings.Contains(s, want) {
			t.Errorf("report lacks %q:\n%s", want, s)
		}
	}
	if err := rep.Err(); !errors.Is(err, tapecheck.ErrBadTape) {
		t.Fatalf("Err() does not wrap ErrBadTape: %v", err)
	}
}

// --- model-family acceptance: every shipped lowering verifies clean, fast.

func modelGraphs(t testing.TB) map[string]*mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(400))
	out := map[string]*mr.Graph{}

	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 4}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	if out["dnn"], err = lower.DNN(q, "dnn"); err != nil {
		t.Fatal(err)
	}

	km, err := ml.TrainKMeans(X, 4, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	_ = tensor.Vec(nil)
	inQ := fixed.QuantizerFor(flat)
	if out["kmeans"], err = lower.KMeans(km, inQ, "kmeans"); err != nil {
		t.Fatal(err)
	}

	Xpm, ypm := dataset.SplitPM(gen.Records(400))
	svm, err := ml.TrainSVM(Xpm, ypm, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out["svm"], err = lower.SVM(svm, inQ, 8, "svm"); err != nil {
		t.Fatal(err)
	}

	l := ml.NewLSTM(4, 32, 5, rng)
	if out["lstm"], err = lower.LSTMStep(l, fixed.NewQuantizer(1), "lstm"); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModelFamiliesVerifyClean: dnn, svm, kmeans and lstm tapes all clear
// the validator, each in under the 2 ms acceptance budget.
func TestModelFamiliesVerifyClean(t *testing.T) {
	for name, g := range modelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := sched.Compile(g, cgra.DefaultGrid()) // through the live gate
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			rep := tapecheck.Verify(p)
			if !rep.OK() {
				t.Fatalf("rejected:\n%s", rep)
			}
			for _, f := range rep.Findings {
				t.Logf("non-fatal finding: %s", f)
			}
			if raceEnabled {
				return // wall-clock budget is meaningless under the detector
			}
			const rounds = 5
			start := time.Now()
			for i := 0; i < rounds; i++ {
				tapecheck.Verify(p)
			}
			if per := time.Since(start) / rounds; per > 2*time.Millisecond {
				t.Errorf("Verify took %v, budget 2ms", per)
			}
		})
	}
}

// bigDNNGraph is the ~1400-node 64-128-64-8 MLP from graphcheck's budget
// test — the largest DNN shape any lowering ships.
func bigDNNGraph(tb testing.TB) *mr.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	lut, err := ml.NewQuantLUT(ml.ReLU, 1.0/4096, fixed.NewQuantizer(1))
	if err != nil {
		tb.Fatal(err)
	}
	var table mr.LUT
	table.Mult = lut.IdxMult
	copy(table.Table[:], lut.Table[:])

	b := mr.NewBuilder("big-dnn")
	layer := b.Input("x", 64)
	for li, width := range []int{128, 64, 8} {
		neurons := make([]mr.Value, width)
		for i := range neurons {
			w := make([]int8, layer.Width())
			for j := range w {
				w[j] = int8(rng.Intn(256) - 128)
			}
			wv := b.ConstInt8(fmt.Sprintf("w%d_%d", li, i), w)
			acc := b.DotProduct(wv, layer)
			acc = b.Map(mr.MAdd, acc, b.Scalar(fmt.Sprintf("b%d_%d", li, i), int32(rng.Intn(2048)-1024)))
			neurons[i] = acc
		}
		z := b.Concat(neurons...)
		layer = b.ApplyLUT(z, &table)
	}
	b.Output(layer)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestVerifyLargestDNNBudget pins the tentpole's acceptance number: the
// full four-analysis pass stays under 2 ms on the ~1400-node DNN tape.
func TestVerifyLargestDNNBudget(t *testing.T) {
	p := compile(t, bigDNNGraph(t))
	rep := tapecheck.Verify(p) // warm-up + sanity
	if !rep.OK() {
		t.Fatalf("big DNN tape rejected:\n%s", rep)
	}
	if raceEnabled {
		t.Skip("wall-clock budget is meaningless under the race detector")
	}
	const rounds = 5
	start := time.Now()
	for i := 0; i < rounds; i++ {
		tapecheck.Verify(p)
	}
	per := time.Since(start) / rounds
	if per > 2*time.Millisecond {
		t.Errorf("Verify(%d instrs) took %v, budget 2ms", len(p.Code()), per)
	}
}

func BenchmarkTapeVerify(b *testing.B) {
	p := compile(b, bigDNNGraph(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := tapecheck.Verify(p); !rep.OK() {
			b.Fatalf("rejected:\n%s", rep)
		}
	}
}

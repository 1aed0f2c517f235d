package mapreduce

import (
	"math"
	"testing"
	"testing/quick"

	"taurus/internal/fixed"
)

func mustMult(t *testing.T, f float64) fixed.Multiplier {
	t.Helper()
	m, err := fixed.NewMultiplier(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapOps(t *testing.T) {
	cases := []struct {
		op      MapOp
		a, b, w int32
	}{
		{MAdd, 3, 4, 7},
		{MSub, 3, 4, -1},
		{MMul, 3, 4, 12},
		{MMin, 3, 4, 3},
		{MMax, 3, 4, 4},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.w {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
	// Saturation at 32 bits.
	if got := MMul.Apply(1<<30, 1<<30); got != math.MaxInt32 {
		t.Errorf("mul overflow = %d", got)
	}
	if got := MAdd.Apply(math.MinInt32, -1); got != math.MinInt32 {
		t.Errorf("add underflow = %d", got)
	}
}

func TestUnaryOps(t *testing.T) {
	if got := UReLU.Apply(-5); got != 0 {
		t.Errorf("relu(-5) = %d", got)
	}
	if got := UReLU.Apply(5); got != 5 {
		t.Errorf("relu(5) = %d", got)
	}
	if got := UNeg.Apply(5); got != -5 {
		t.Errorf("neg(5) = %d", got)
	}
	if got := UNeg.Apply(math.MinInt32); got != math.MaxInt32 {
		t.Errorf("neg(min) = %d, want saturation", got)
	}
	if got := UAbs.Apply(-7); got != 7 {
		t.Errorf("abs(-7) = %d", got)
	}
	if got := ULeakyReLU.Apply(-8192); got != -82 {
		t.Errorf("leaky(-8192) = %d, want -82", got)
	}
	if got := ULeakyReLU.Apply(100); got != 100 {
		t.Errorf("leaky(100) = %d", got)
	}
}

func TestReduceOps(t *testing.T) {
	v := []int32{3, -1, 7, 2}
	if got := RAdd.Apply(v); got != 11 {
		t.Errorf("sum = %d", got)
	}
	if got := RMin.Apply(v); got != -1 {
		t.Errorf("min = %d", got)
	}
	if got := RMax.Apply(v); got != 7 {
		t.Errorf("max = %d", got)
	}
	if got := RArgMin.Apply(v); got != 1 {
		t.Errorf("argmin = %d", got)
	}
	if got := RArgMax.Apply(v); got != 2 {
		t.Errorf("argmax = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("reduce of empty should panic")
		}
	}()
	RAdd.Apply(nil)
}

func TestOpStrings(t *testing.T) {
	if MAdd.String() != "add" || UReLU.String() != "relu" || RArgMin.String() != "argmin" {
		t.Error("unexpected op names")
	}
	kinds := []Kind{KInput, KConst, KMap, KUnary, KReduce, KConcat, KRequant, KLUT, KSlice, KScale}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

func TestBuilderDotProduct(t *testing.T) {
	b := NewBuilder("dot")
	x := b.Input("x", 4)
	w := b.Const("w", []int32{1, 2, 3, 4})
	b.Output(b.DotProduct(w, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := g.Eval([]int32{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0][0] != 300 {
		t.Errorf("dot = %d, want 300", outs[0][0])
	}
}

func TestBuilderBroadcast(t *testing.T) {
	b := NewBuilder("bcast")
	x := b.Input("x", 3)
	s := b.Scalar("s", 10)
	b.Output(b.Map(MAdd, x, s))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := g.Eval([]int32{1, 2, 3})
	for i, want := range []int32{11, 12, 13} {
		if outs[0][i] != want {
			t.Errorf("out[%d] = %d", i, outs[0][i])
		}
	}
}

func TestBuilderSliceConcat(t *testing.T) {
	b := NewBuilder("slice")
	x := b.Input("x", 5)
	a := b.Slice(x, 0, 2)
	c := b.Slice(x, 3, 2)
	b.Output(b.Concat(c, a))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := g.Eval([]int32{1, 2, 3, 4, 5})
	want := []int32{4, 5, 1, 2}
	for i := range want {
		if outs[0][i] != want[i] {
			t.Errorf("out = %v, want %v", outs[0], want)
		}
	}
}

func TestBuilderRequantAndScale(t *testing.T) {
	b := NewBuilder("rq")
	x := b.Input("x", 2)
	r := b.Requant(x, mustMult(t, 0.5))
	s := b.Scale(x, mustMult(t, 0.5))
	b.Output(r, s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := g.Eval([]int32{1000, -10})
	// Requant saturates to int8.
	if outs[0][0] != 127 || outs[0][1] != -5 {
		t.Errorf("requant = %v", outs[0])
	}
	// Scale stays wide.
	if outs[1][0] != 500 || outs[1][1] != -5 {
		t.Errorf("scale = %v", outs[1])
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []func(b *Builder){
		func(b *Builder) { b.Input("x", 0) },
		func(b *Builder) { b.Const("c", nil) },
		func(b *Builder) { b.Map(MAdd, b.Input("x", 3), b.Input("y", 2)) },
		func(b *Builder) { b.Concat() },
		func(b *Builder) { b.Slice(b.Input("x", 3), 2, 2) },
		func(b *Builder) { b.ApplyLUT(b.Input("x", 3), nil) },
	}
	for i, f := range cases {
		b := NewBuilder("bad")
		f(b)
		// Every builder needs an output to pass validation, but the
		// original error must win.
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBuildNoOutputs(t *testing.T) {
	b := NewBuilder("empty")
	b.Input("x", 1)
	if _, err := b.Build(); err == nil {
		t.Error("graph without outputs should fail validation")
	}
}

func TestEvalInputMismatch(t *testing.T) {
	b := NewBuilder("g")
	x := b.Input("x", 2)
	b.Output(x)
	g, _ := b.Build()
	if _, err := g.Eval(); err == nil {
		t.Error("missing inputs should fail")
	}
	if _, err := g.Eval([]int32{1}); err == nil {
		t.Error("wrong width should fail")
	}
}

func TestLUTClamps(t *testing.T) {
	l := &LUT{Mult: mustMult(t, 1.0)}
	for i := range l.Table {
		l.Table[i] = int8(i % 100)
	}
	lo := l.Apply(-1 << 20)
	hi := l.Apply(1 << 20)
	if lo != int32(l.Table[0]) {
		t.Errorf("low clamp = %d", lo)
	}
	if hi != int32(l.Table[LUTSize-1]) {
		t.Errorf("high clamp = %d", hi)
	}
	if got := l.Apply(0); got != int32(l.Table[LUTSize/2]) {
		t.Errorf("centre = %d", got)
	}
}

// Property: for any int8 inputs, a dot-product graph matches direct
// computation.
func TestDotGraphProperty(t *testing.T) {
	b := NewBuilder("dotp")
	x := b.Input("x", 8)
	w := b.Const("w", []int32{1, -2, 3, -4, 5, -6, 7, -8})
	b.Output(b.DotProduct(w, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	weights := []int32{1, -2, 3, -4, 5, -6, 7, -8}
	f := func(vals [8]int8) bool {
		in := make([]int32, 8)
		var want int64
		for i, v := range vals {
			in[i] = int32(v)
			want += int64(v) * int64(weights[i])
		}
		outs, err := g.Eval(in)
		if err != nil {
			return false
		}
		return int64(outs[0][0]) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := NewBuilder("ok")
	x := b.Input("x", 2)
	b.Output(b.Unary(UReLU, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: forward reference.
	g.Nodes[1].Args[0] = 5
	if err := g.Validate(); err == nil {
		t.Error("forward reference should fail validation")
	}
}

// buildTestGraph exercises every node kind: slice, map (broadcast and full),
// unary, reduce, requant, scale, LUT, concat.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("eval-test")
	in := b.Input("x", 8)
	w := b.Const("w", []int32{1, -2, 3, -4, 5, -6, 7, -8})
	prod := b.Map(MMul, in, w)
	act := b.Unary(UReLU, prod)
	sum := b.Reduce(RAdd, act)
	sc := b.Scale(sum, mustMult(t, 1.5))
	rq := b.Requant(sc, mustMult(t, 0.25))
	lo := b.Slice(in, 0, 4)
	hi := b.Slice(in, 4, 4)
	mx := b.Map(MMax, lo, hi)
	var lut LUT
	lut.Mult = mustMult(t, 1.0)
	for i := range lut.Table {
		lut.Table[i] = int8((i % 251) - 125)
	}
	nl := b.ApplyLUT(mx, &lut)
	cat := b.Concat(rq, nl)
	b.Output(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphClone(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	in := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	want, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("clone diverges at lane %d", i)
		}
	}
	// Mutating the clone's weights must not touch the original.
	for _, n := range c.Nodes {
		switch n.Kind {
		case KConst:
			for i := range n.Const {
				n.Const[i] = 0
			}
		case KLUT:
			n.LUT.Table[0] = 99
		}
	}
	again, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if again[0][i] != want[0][i] {
			t.Fatal("mutating clone changed the original graph")
		}
	}
}

package controlplane

import (
	"errors"
	"strings"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// saturatingGraph is structurally valid but provably overflows Fix32: an
// int8 input scaled by 2^20 and then squared.
func saturatingGraph(t *testing.T) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("sat")
	x := b.Input("x", 4)
	big := b.Const("big", []int32{1 << 20, 1 << 20, 1 << 20, 1 << 20})
	y := b.Map(mr.MMul, x, big)
	sq := b.Map(mr.MMul, y, y)
	b.Output(b.Reduce(mr.RAdd, sq))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reshapedGraph verifies clean but is structurally different from
// stubGraph — a retrain that silently changed topology.
func reshapedGraph(t *testing.T) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("reshaped")
	x := b.Input("x", 4)
	b.Output(b.Reduce(mr.RAdd, b.Unary(mr.UAbs, x)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seqModel is a stubModel whose Lower walks a scripted sequence of graphs,
// repeating the last one — so a test can serve one good lowering and then a
// poisoned one.
type seqModel struct {
	stubModel
	graphs []*mr.Graph
	calls  int
}

func (m *seqModel) Lower(fixed.Quantizer) (*mr.Graph, error) {
	i := m.calls
	if i >= len(m.graphs) {
		i = len(m.graphs) - 1
	}
	m.calls++
	return m.graphs[i], nil
}

func gateConfig() Config {
	cfg := DefaultConfig()
	cfg.RetrainRecords = 16
	return cfg
}

func labelSrc(n int) []dataset.Record { return make([]dataset.Record, n) }

// TestControllerRejectsSaturatingLowering: a retrain whose lowering can
// saturate never reaches the pusher and surfaces a node-naming report.
func TestControllerRejectsSaturatingLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), saturatingGraph(t)}}
	push := &recordPusher{}
	ctrl, err := New(push, m, fixed.NewQuantizer(1), labelSrc, gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = ctrl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("retrain with saturating lowering = %v, want ErrBadGraph", err)
	}
	if !strings.Contains(err.Error(), "node") {
		t.Errorf("rejection does not name the offending node: %v", err)
	}
	if got := len(push.pushed()); got != 1 {
		t.Errorf("pusher saw %d pushes, want 1 — the bad graph reached the data plane", got)
	}
	if ctrl.Err() == nil {
		t.Error("Err() empty after a rejected lowering")
	}
	if st := ctrl.Stats(); st.Retrains != 1 {
		t.Errorf("rejected cycle counted as a retrain (retrains = %d)", st.Retrains)
	}
}

// TestControllerRejectsIncompatibleLowering: a clean lowering that changed
// structure since the last push is refused before the pusher sees it.
func TestControllerRejectsIncompatibleLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), reshapedGraph(t)}}
	push := &recordPusher{}
	ctrl, err := New(push, m, fixed.NewQuantizer(1), labelSrc, gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = ctrl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Fatalf("retrain with reshaped lowering = %v, want ErrIncompatible", err)
	}
	if got := len(push.pushed()); got != 1 {
		t.Errorf("pusher saw %d pushes, want 1", got)
	}
}

// TestFleetRejectsSaturatingLowering: the fleet refuses the poisoned
// lowering before the fan-out, so no member ever sees it and no rollback
// happens.
func TestFleetRejectsSaturatingLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), saturatingGraph(t)}}
	fl, err := NewFleet(m, fixed.NewQuantizer(1), gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := &recordPusher{}, &recordPusher{}
	if _, err := fl.Register("a", p0, labelSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("b", p1, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = fl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("fleet retrain with saturating lowering = %v, want ErrBadGraph", err)
	}
	if a, b := len(p0.pushed()), len(p1.pushed()); a != 1 || b != 1 {
		t.Errorf("members saw %d/%d pushes, want 1/1 — bad graph reached the fan-out", a, b)
	}
	if fl.Err() == nil {
		t.Error("Err() empty after a rejected lowering")
	}
}

// TestFleetRejectsIncompatibleLowering: structural drift between fleet-wide
// pushes is refused before the fan-out.
func TestFleetRejectsIncompatibleLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), reshapedGraph(t)}}
	fl, err := NewFleet(m, fixed.NewQuantizer(1), gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	p0 := &recordPusher{}
	if _, err := fl.Register("a", p0, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = fl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Fatalf("fleet retrain with reshaped lowering = %v, want ErrIncompatible", err)
	}
	if got := len(p0.pushed()); got != 1 {
		t.Errorf("member saw %d pushes, want 1", got)
	}
}

// recheckPusher is a recordPusher whose post-push tape recheck fails on
// demand.
type recheckPusher struct {
	recordPusher
	rechecks      int
	failRecheckAt int // fail the Nth recheck (1-based); 0 = never
}

func (p *recheckPusher) RecheckTape() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rechecks++
	if p.rechecks == p.failRecheckAt {
		return errors.New("injected tape recheck failure")
	}
	return nil
}

// TestFleetRecheckFailureRollsBack: a member whose tape fails the post-push
// recheck must not keep serving the unverified weights — every member,
// including the failing one (its UpdateWeights succeeded), is rolled back
// to the previous push, and the cycle is not counted as a retrain.
func TestFleetRecheckFailureRollsBack(t *testing.T) {
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := &recheckPusher{}
	b := &recheckPusher{failRecheckAt: 2}
	if _, err := fl.Register("a", a, labelSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("b", b, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	g1 := a.pushed()[0]
	if err := fl.RetrainNow(); err == nil {
		t.Fatal("second retrain should have surfaced the failed tape recheck")
	}
	for name, p := range map[string]*recheckPusher{"a": a, "b": b} {
		got := p.pushed()
		if last := got[len(got)-1]; last != g1 {
			t.Errorf("member %s serves %p after the failed recheck, want the first push %p", name, last, g1)
		}
	}
	if st := fl.Stats(); st.Retrains != 1 {
		t.Errorf("failed cycle counted as a retrain (retrains = %d)", st.Retrains)
	}
	if fl.Err() == nil {
		t.Error("Err() empty after a failed tape recheck")
	}
}

// TestFleetFirstPushRecheckFailureNamesDiverged: with no previous push to
// restore, a failed recheck names every member left serving the new graph —
// the failing member included.
func TestFleetFirstPushRecheckFailureNamesDiverged(t *testing.T) {
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("a", &recheckPusher{}, labelSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("b", &recheckPusher{failRecheckAt: 1}, labelSrc); err != nil {
		t.Fatal(err)
	}
	err = fl.RetrainNow()
	if err == nil {
		t.Fatal("first retrain should have surfaced the failed tape recheck")
	}
	if !strings.Contains(err.Error(), "[a b]") {
		t.Errorf("error does not name the diverged members [a b]: %v", err)
	}
}

// TestControllerRecheckFailureRollsBack: the single-switch loop takes the
// same rollback path — a push whose recheck fails is replaced by the
// previous push.
func TestControllerRecheckFailureRollsBack(t *testing.T) {
	p := &recheckPusher{failRecheckAt: 2}
	ctrl, err := New(p, liveModel{}, fixed.NewQuantizer(1), labelSrc, gateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	g1 := p.pushed()[0]
	if err := ctrl.RetrainNow(); err == nil {
		t.Fatal("second retrain should have surfaced the failed tape recheck")
	}
	got := p.pushed()
	if len(got) != 3 || got[2] != g1 {
		t.Errorf("pusher saw %d pushes, last == first push: %v — unverified weights left serving",
			len(got), len(got) == 3 && got[2] == g1)
	}
	if st := ctrl.Stats(); st.Retrains != 1 {
		t.Errorf("failed cycle counted as a retrain (retrains = %d)", st.Retrains)
	}
	if ctrl.Err() == nil {
		t.Error("Err() empty after a failed tape recheck")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"taurus/internal/controlplane"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/model"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one batch, setup or episode share a group.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated during the call, where measured.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code paths at no cost. It is
// used from the driver goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	// ctx is the span that wrapped layer calls nest under: the driver sets
	// it around a call (RetrainNow) whose callees the wrappers below time.
	ctx   int
	group string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ctx: -1} }

// open starts a span and returns its id (-1 on a nil tracer).
func (t *tracer) open(name string, parent int, group string, start time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Group: group,
		Start: int64(start.Sub(t.t0)), End: -1,
	})
	return len(t.spans) - 1
}

// close ends span id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(end.Sub(t.t0))
}

// add records a finished span.
func (t *tracer) add(name string, parent int, group string, start, end time.Time) int {
	id := t.open(name, parent, group, start)
	t.close(id, end)
	return id
}

// enter sets the span and group that wrapped layer calls nest under.
func (t *tracer) enter(ctx int, group string) {
	if t != nil {
		t.ctx, t.group = ctx, group
	}
}

// durs returns the durations of every closed span called name.
func (t *tracer) durs(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// durUnder returns the durations of the spans called name whose parent is
// called parent.
func (t *tracer) durUnder(name, parent string) []time.Duration {
	var out []time.Duration
	for _, s := range t.under(name, parent) {
		out = append(out, s.dur())
	}
	return out
}

// sumUnder returns, for every span called parent, the summed durations of
// its direct children called name.
func (t *tracer) sumUnder(name, parent string) []time.Duration {
	if t == nil {
		return nil
	}
	total := make(map[int]time.Duration)
	var order []int
	for _, s := range t.under(name, parent) {
		if _, ok := total[s.Parent]; !ok {
			order = append(order, s.Parent)
		}
		total[s.Parent] += s.dur()
	}
	out := make([]time.Duration, len(order))
	for i, p := range order {
		out[i] = total[p]
	}
	return out
}

// under returns the closed spans called name whose parent is called parent.
func (t *tracer) under(name, parent string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// durations of its direct children.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur()-child[s.ID])
		}
	}
	return out
}

// write saves the spans and the run's provenance as JSON under dir.
func (t *tracer) write(dir, file string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// The wrappers below time the control plane's calls into each layer from
// outside the program: the controller sees an ordinary Deployable, Pusher
// and LabelSource.

// tracedModel times Fit (with the bytes it allocates) and Lower.
type tracedModel struct {
	model.Deployable
	tr *tracer
}

func (m tracedModel) Fit(recs []dataset.Record) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := m.Deployable.Fit(recs)
	end := time.Now()
	runtime.ReadMemStats(&after)
	id := m.tr.add("model.Fit", m.tr.ctx, m.tr.group, start, end)
	m.tr.spans[id].AllocBytes = after.TotalAlloc - before.TotalAlloc
	return err
}

func (m tracedModel) Lower(inQ fixed.Quantizer) (*mr.Graph, error) {
	start := time.Now()
	g, err := m.Deployable.Lower(inQ)
	m.tr.add("model.Lower", m.tr.ctx, m.tr.group, start, time.Now())
	return g, err
}

// pushTarget is what the controller pushes to: the pipeline.
type pushTarget interface {
	controlplane.Pusher
	controlplane.TapeRechecker
}

// tracedPusher times UpdateWeights and the post-push RecheckTape.
type tracedPusher struct {
	p  pushTarget
	tr *tracer
}

func (p tracedPusher) UpdateWeights(g *mr.Graph) error {
	start := time.Now()
	err := p.p.UpdateWeights(g) //clonecheck:owned — the controller hands over a freshly lowered graph it never mutates again
	p.tr.add("pipeline.UpdateWeights", p.tr.ctx, p.tr.group, start, time.Now())
	return err
}

func (p tracedPusher) RecheckTape() error {
	start := time.Now()
	err := p.p.RecheckTape()
	p.tr.add("tapecheck.RecheckTape", p.tr.ctx, p.tr.group, start, time.Now())
	return err
}

// tracedLabels times the label source the benchmark supplies.
func tracedLabels(src controlplane.LabelSource, tr *tracer) controlplane.LabelSource {
	return func(n int) []dataset.Record {
		start := time.Now()
		recs := src(n)
		tr.add("trafficgen.LabelSource", tr.ctx, tr.group, start, time.Now())
		return recs
	}
}

// Summary statistics.

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// vals converts durations with a unit function.
func vals(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

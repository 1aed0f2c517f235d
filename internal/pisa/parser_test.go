package pisa

import (
	"bytes"
	"errors"
	"testing"
)

// refParser is the name-resolving parse-graph walker the compiled Parser
// replaced, kept as the differential oracle: it looks states, fields and
// transitions up by name on every step.
type refParser struct {
	layout *Layout
	states map[string]*ParseState
	start  string
}

type refOutcome int

const (
	refAccept refOutcome = iota
	refTruncated
	refLoop
)

func newRefParser(layout *Layout, start string, states []*ParseState) *refParser {
	r := &refParser{layout: layout, states: map[string]*ParseState{}, start: start}
	for _, s := range states {
		r.states[s.Name] = s
	}
	return r
}

func (r *refParser) parse(data []byte, phv *PHV) (int, refOutcome) {
	cur := r.start
	off := 0
	for steps := 0; ; steps++ {
		if steps > 64 {
			return off, refLoop
		}
		st := r.states[cur]
		if off+st.HeaderLen > len(data) {
			return off, refTruncated
		}
		hdr := data[off : off+st.HeaderLen]
		for _, f := range st.Fields {
			var v int32
			switch f.WidthBits {
			case 8:
				v = int32(hdr[f.Offset])
			case 16:
				v = int32(uint16(hdr[f.Offset])<<8 | uint16(hdr[f.Offset+1]))
			case 32:
				v = int32(uint32(hdr[f.Offset])<<24 | uint32(hdr[f.Offset+1])<<16 |
					uint32(hdr[f.Offset+2])<<8 | uint32(hdr[f.Offset+3]))
			}
			phv.Set(r.layout.ID(f.Name), v)
		}
		off += st.HeaderLen
		if st.SelectField == "" {
			return off, refAccept
		}
		next, ok := st.Transitions[phv.Get(r.layout.ID(st.SelectField))]
		if !ok {
			return off, refAccept
		}
		cur = next
	}
}

// loopGraph is a parse graph with self-loops: stacked 4-byte tags, and a
// zero-length state that selects on a field an earlier state extracted, so
// it loops forever unless the step bound stops it.
func loopGraph() (*Layout, string, []*ParseState) {
	l := NewLayout("tag.pcp", "tag.type", "body.a", "body.b", "body.c")
	tag := &ParseState{
		Name: "tag", HeaderLen: 4,
		Fields: []FieldSpec{
			{Name: "tag.pcp", Offset: 0, WidthBits: 8},
			{Name: "tag.type", Offset: 2, WidthBits: 16},
		},
		SelectField: "tag.type",
		Transitions: map[int32]string{0x8100: "tag", 0x0800: "body", 0: "pad"},
	}
	pad := &ParseState{
		Name:        "pad",
		SelectField: "tag.pcp",
		Transitions: map[int32]string{0: "pad", 1: "body"},
	}
	body := &ParseState{
		Name: "body", HeaderLen: 6,
		Fields: []FieldSpec{
			{Name: "body.a", Offset: 0, WidthBits: 32},
			{Name: "body.b", Offset: 4, WidthBits: 16},
			{Name: "body.c", Offset: 5, WidthBits: 8},
		},
	}
	return l, "tag", []*ParseState{tag, pad, body}
}

func arpFrame() []byte {
	pkt := make([]byte, 42)
	pkt[12], pkt[13] = 0x08, 0x06
	return pkt
}

// parseCase pairs a compiled parser with its reference walker.
type parseCase struct {
	name   string
	layout *Layout
	got    *Parser
	ref    *refParser
}

func parseCases(t testing.TB) []parseCase {
	std := stdLayout()
	start, states := standardGraph()
	stdP, err := NewParser(std, start, states...)
	if err != nil {
		t.Fatal(err)
	}
	ll, lstart, lstates := loopGraph()
	loopP, err := NewParser(ll, lstart, lstates...)
	if err != nil {
		t.Fatal(err)
	}
	return []parseCase{
		{"standard", std, stdP, newRefParser(std, start, states)},
		{"loop", ll, loopP, newRefParser(ll, lstart, lstates)},
	}
}

// checkParse parses data with both walkers and reports any difference in
// bytes consumed, outcome, or PHV contents.
func checkParse(t *testing.T, c parseCase, data []byte) {
	t.Helper()
	got, want := NewPHV(c.layout), NewPHV(c.layout)
	n, err := c.got.Parse(data, got)
	wn, outcome := c.ref.parse(data, want)
	if n != wn {
		t.Errorf("%s %x: consumed %d, reference %d", c.name, data, n, wn)
	}
	switch outcome {
	case refAccept:
		if err != nil {
			t.Errorf("%s %x: error %v, reference accepts", c.name, data, err)
		}
	case refTruncated:
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s %x: error %v, reference truncated", c.name, data, err)
		}
	case refLoop:
		if err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("%s %x: error %v, reference loops", c.name, data, err)
		}
	}
	for id := FieldID(0); int(id) < c.layout.Len(); id++ {
		if got.Get(id) != want.Get(id) || got.Valid(id) != want.Valid(id) {
			t.Errorf("%s %x: %s = %d (valid %v), reference %d (valid %v)", c.name, data,
				c.layout.Name(id), got.Get(id), got.Valid(id), want.Get(id), want.Valid(id))
		}
	}
}

// FuzzParse checks the compiled parser against the reference walker over
// arbitrary bytes, on the standard graph and on a self-looping one.
func FuzzParse(f *testing.F) {
	tcp := BuildTCPPacket(0x0a000001, 0x0a000002, 1234, 443, 0x12, 16)
	f.Add(tcp)
	f.Add(BuildUDPPacket(0x0a000003, 0x0a000004, 5353, 53, 8))
	f.Add(arpFrame())
	for _, n := range []int{1, 13, 14, 20, 34, 40, 53} {
		f.Add(tcp[:n])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                            // tag -> pad loops on pcp 0
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3, 4, 5, 6})                          // tag -> pad -> body
	f.Add(append(bytes.Repeat([]byte{0, 0, 0x81, 0}, 3), 7, 0, 8, 0, 9)) // stacked tags, short body
	f.Add(bytes.Repeat([]byte{0, 0, 0x81, 0}, 70))                       // tag self-loop hits the bound
	cases := parseCases(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range cases {
			checkParse(t, c, data)
		}
	})
}

// frame is one packet of the standing per-kind parse workload.
type frame struct {
	kind string
	data []byte
}

// benchFrames is what the serving path meets: ML-path TCP, bypass UDP and
// ARP, and malformed frames.
func benchFrames() []frame {
	return []frame{
		{"tcp", BuildTCPPacket(0x0a000001, 0x0a000002, 1234, 443, 0x10, 64)},
		{"udp", BuildUDPPacket(0x0a000003, 0x0a000004, 5353, 53, 64)},
		{"arp", arpFrame()},
		{"truncated", BuildTCPPacket(0x0a000001, 0x0a000002, 1234, 443, 0x10, 0)[:40]},
	}
}

func TestParseZeroAlloc(t *testing.T) {
	l := stdLayout()
	p, err := StandardParser(l)
	if err != nil {
		t.Fatal(err)
	}
	phv := NewPHV(l)
	for _, f := range benchFrames() {
		allocs := testing.AllocsPerRun(100, func() {
			phv.Reset()
			p.Parse(f.data, phv)
		})
		if allocs > 0 {
			t.Errorf("%s: Parse allocates %.2f times per packet, want 0", f.kind, allocs)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	l := stdLayout()
	p, err := StandardParser(l)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range benchFrames() {
		b.Run(f.kind, func(b *testing.B) {
			phv := NewPHV(l)
			b.ReportAllocs()
			for b.Loop() {
				p.Parse(f.data, phv)
			}
		})
	}
}

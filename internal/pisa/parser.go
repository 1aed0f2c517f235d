package pisa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// The programmable parser walks a parse graph (Gibb et al., cited as the
// PISA parser design in §4): each state extracts header fields into the PHV
// and selects the next state from a field value. As on the switch, the graph
// is programmed once: NewParser compiles it into dense state indices with
// resolved FieldIDs, so the per-packet walk does no name lookup and no
// allocation.

// ErrTruncated is wrapped by every error Parse returns for a packet too
// short for the header its parse state expects.
var ErrTruncated = errors.New("pisa: packet too short")

// maxParseSteps bounds the walk so a looping graph cannot spin forever.
const maxParseSteps = 64

// FieldSpec describes one extracted field within a header.
type FieldSpec struct {
	Name      string // PHV field to write
	Offset    int    // byte offset within the header
	WidthBits int    // 8, 16 or 32
}

// ParseState is one node of the parse graph.
type ParseState struct {
	Name      string
	HeaderLen int // bytes consumed by this header
	Fields    []FieldSpec
	// Select chooses the next state: the value of SelectField (already
	// extracted) is looked up in Transitions; missing keys end parsing
	// (accept). An empty SelectField also accepts.
	SelectField string
	Transitions map[int32]string
}

// extract is a FieldSpec with its PHV field resolved.
type extract struct {
	id     FieldID
	offset int
	bytes  int // 1, 2 or 4
}

// transition is one (select value, next state index) edge.
type transition struct {
	value int32
	next  int
}

// state is a ParseState compiled against a layout.
type state struct {
	headerLen int
	fields    []extract
	selects   bool // false: accept after this header
	sel       FieldID
	trans     []transition // scanned linearly; parse graphs fan out little
	tooShort  error        // wraps ErrTruncated
	loop      error
}

// Parser is a compiled parse graph.
type Parser struct {
	states []state
	start  int
}

// NewParser compiles a parse graph over the given layout, starting at
// start. It rejects graphs that could only fail per packet: unknown fields,
// fields outside their header, negative header lengths, and transitions to
// undefined states.
func NewParser(layout *Layout, start string, states ...*ParseState) (*Parser, error) {
	index := make(map[string]int, len(states))
	for i, s := range states {
		if _, dup := index[s.Name]; dup {
			return nil, fmt.Errorf("pisa: duplicate parse state %q", s.Name)
		}
		index[s.Name] = i
	}
	start0, ok := index[start]
	if !ok {
		return nil, fmt.Errorf("pisa: start state %q not defined", start)
	}
	p := &Parser{states: make([]state, len(states)), start: start0}
	for i, s := range states {
		if s.HeaderLen < 0 {
			return nil, fmt.Errorf("pisa: state %q has header length %d", s.Name, s.HeaderLen)
		}
		st := &p.states[i]
		st.headerLen = s.HeaderLen
		for _, f := range s.Fields {
			if !layout.Has(f.Name) {
				return nil, fmt.Errorf("pisa: state %q extracts unknown field %q", s.Name, f.Name)
			}
			if f.WidthBits != 8 && f.WidthBits != 16 && f.WidthBits != 32 {
				return nil, fmt.Errorf("pisa: state %q field %q has width %d", s.Name, f.Name, f.WidthBits)
			}
			if f.Offset < 0 || f.Offset+f.WidthBits/8 > s.HeaderLen {
				return nil, fmt.Errorf("pisa: state %q field %q exceeds header length", s.Name, f.Name)
			}
			st.fields = append(st.fields, extract{id: layout.ID(f.Name), offset: f.Offset, bytes: f.WidthBits / 8})
		}
		for v, next := range s.Transitions {
			ni, ok := index[next]
			if !ok {
				return nil, fmt.Errorf("pisa: state %q transitions on %d to undefined state %q", s.Name, v, next)
			}
			st.trans = append(st.trans, transition{value: v, next: ni})
		}
		// Sorted so the scan order, and with it the per-packet cost, does not
		// depend on map iteration order.
		sort.Slice(st.trans, func(a, b int) bool { return st.trans[a].value < st.trans[b].value })
		if s.SelectField != "" {
			if !layout.Has(s.SelectField) {
				return nil, fmt.Errorf("pisa: state %q selects on unknown field %q", s.Name, s.SelectField)
			}
			st.selects, st.sel = true, layout.ID(s.SelectField)
		}
		st.tooShort = fmt.Errorf("%w for header %q (need %d bytes)", ErrTruncated, s.Name, s.HeaderLen)
		st.loop = fmt.Errorf("pisa: parse graph loop detected at %q", s.Name)
	}
	return p, nil
}

// Parse walks the packet bytes, extracting fields into phv. It returns the
// number of header bytes consumed. A packet too short for a header yields
// an error wrapping ErrTruncated. Every error is built at compile time, so
// the drop path allocates nothing either.
//
// hotpath: zero-alloc
func (p *Parser) Parse(data []byte, phv *PHV) (int, error) {
	cur := p.start
	off := 0
	for steps := 0; ; steps++ {
		st := &p.states[cur]
		if steps > maxParseSteps {
			return off, st.loop
		}
		if off+st.headerLen > len(data) {
			return off, st.tooShort
		}
		hdr := data[off : off+st.headerLen]
		for _, f := range st.fields {
			var v int32
			switch f.bytes {
			case 1:
				v = int32(hdr[f.offset])
			case 2:
				v = int32(binary.BigEndian.Uint16(hdr[f.offset:]))
			case 4:
				v = int32(binary.BigEndian.Uint32(hdr[f.offset:]))
			}
			phv.Set(f.id, v)
		}
		off += st.headerLen
		if !st.selects {
			return off, nil
		}
		sel := phv.Get(st.sel)
		next := -1
		for _, t := range st.trans {
			if t.value == sel {
				next = t.next
				break
			}
		}
		if next < 0 {
			return off, nil // accept
		}
		cur = next
	}
}

// StandardLayoutFields lists the header fields the standard TCP/IPv4 parser
// extracts.
func StandardLayoutFields() []string {
	return []string{
		"eth.type",
		"ipv4.proto", "ipv4.len", "ipv4.src", "ipv4.dst",
		"l4.sport", "l4.dport", "tcp.flags",
	}
}

// StandardParser builds an Ethernet -> IPv4 -> TCP/UDP parse graph over a
// layout containing StandardLayoutFields.
func StandardParser(layout *Layout) (*Parser, error) {
	start, states := standardGraph()
	return NewParser(layout, start, states...)
}

// standardGraph returns StandardParser's start state and parse states.
func standardGraph() (string, []*ParseState) {
	eth := &ParseState{
		Name:        "ethernet",
		HeaderLen:   14,
		Fields:      []FieldSpec{{Name: "eth.type", Offset: 12, WidthBits: 16}},
		SelectField: "eth.type",
		Transitions: map[int32]string{0x0800: "ipv4"},
	}
	ipv4 := &ParseState{
		Name:      "ipv4",
		HeaderLen: 20,
		Fields: []FieldSpec{
			{Name: "ipv4.len", Offset: 2, WidthBits: 16},
			{Name: "ipv4.proto", Offset: 9, WidthBits: 8},
			{Name: "ipv4.src", Offset: 12, WidthBits: 32},
			{Name: "ipv4.dst", Offset: 16, WidthBits: 32},
		},
		SelectField: "ipv4.proto",
		Transitions: map[int32]string{6: "tcp", 17: "udp"},
	}
	tcp := &ParseState{
		Name:      "tcp",
		HeaderLen: 20,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
			{Name: "tcp.flags", Offset: 13, WidthBits: 8},
		},
	}
	udp := &ParseState{
		Name:      "udp",
		HeaderLen: 8,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
		},
	}
	return "ethernet", []*ParseState{eth, ipv4, tcp, udp}
}

// BuildTCPPacket serialises a minimal Ethernet+IPv4+TCP packet for the
// standard parser — used by traffic generators and tests.
func BuildTCPPacket(srcIP, dstIP uint32, sport, dport uint16, flags byte, payloadLen int) []byte {
	pkt := make([]byte, 14+20+20+payloadLen)
	binary.BigEndian.PutUint16(pkt[12:], 0x0800)
	ip := pkt[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(20+20+payloadLen))
	ip[8] = 64
	ip[9] = 6
	binary.BigEndian.PutUint32(ip[12:], srcIP)
	binary.BigEndian.PutUint32(ip[16:], dstIP)
	tcp := ip[20:]
	binary.BigEndian.PutUint16(tcp[0:], sport)
	binary.BigEndian.PutUint16(tcp[2:], dport)
	tcp[12] = 5 << 4
	tcp[13] = flags
	return pkt
}

// BuildUDPPacket serialises a minimal Ethernet+IPv4+UDP packet for the
// standard parser.
func BuildUDPPacket(srcIP, dstIP uint32, sport, dport uint16, payloadLen int) []byte {
	pkt := make([]byte, 14+20+8+payloadLen)
	binary.BigEndian.PutUint16(pkt[12:], 0x0800)
	ip := pkt[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(20+8+payloadLen))
	ip[8] = 64
	ip[9] = 17
	binary.BigEndian.PutUint32(ip[12:], srcIP)
	binary.BigEndian.PutUint32(ip[16:], dstIP)
	udp := ip[20:]
	binary.BigEndian.PutUint16(udp[0:], sport)
	binary.BigEndian.PutUint16(udp[2:], dport)
	binary.BigEndian.PutUint16(udp[4:], uint16(8+payloadLen))
	return pkt
}

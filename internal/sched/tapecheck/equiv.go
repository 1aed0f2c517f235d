package tapecheck

import (
	"fmt"
	"sort"

	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// equiv is the semantic-equivalence analysis. Both sides of the translation
// are lowered into one hash-consed expression universe: a forward walk over
// the graph derives, per node and per lane, the expression the semantics
// define; a symbolic execution of the tape (slot 0 — bounds() proves the
// other slots address the same producers) derives the expression each arena
// cell holds, with fused instructions expanded into their documented
// RunBatch meaning — a dot is sum(mul(aᵢ,bᵢ)), a dot+bias wraps that sum in
// one more saturating add, a squared distance is sum(mul(d,d)) over
// d = sub(aᵢ,bᵢ). Hash-consing makes equivalence a single integer compare
// per output lane, and because the expressions are interned structurally the
// check is exact: no instruction-order or copy-elimination freedom is lost,
// while only bit-exact-commutative operators (saturating add, mul, min, max)
// are canonicalised by kid order. Weight leaves are keyed by storage
// identity (the graph slot behind the pointer, via alias()), not by value,
// so a program stays equivalent across live UpdateWeights pushes.
type exprID = int32

const (
	eUndef uint8 = iota
	eInput       // a leaf: graph input node and lane
	eConst       // a leaf: graph const node and lane within its storage
	eAdd         // commutative
	eSub
	eMul // commutative
	eMin // commutative
	eMax // commutative
	eRelu
	eLeaky
	eNeg
	eAbs
	eSum  // kids in lane order
	eRMin // kids in lane order (first-wins tie break is positional)
	eRMax
	eArgMin
	eArgMax
	eRequant // x = payload slot (graph node owning the multiplier)
	eScale
	eLUT // x = payload slot (graph node owning the table)
)

var exprName = [...]string{
	eUndef: "undef", eInput: "in", eConst: "w",
	eAdd: "add", eSub: "sub", eMul: "mul", eMin: "min", eMax: "max",
	eRelu: "relu", eLeaky: "leaky", eNeg: "neg", eAbs: "abs",
	eSum: "sum", eRMin: "redmin", eRMax: "redmax", eArgMin: "argmin", eArgMax: "argmax",
	eRequant: "requant", eScale: "scale", eLUT: "lut",
}

// leafBit marks an exprID that names a graph input or const lane rather than
// a slot of interner.nodes; the low bits number the leaf lanes in graph
// order. The graph walk mints one leaf per input and const lane (tens of
// thousands on a large DNN), and the tape side resolves its reads through the
// walk's lane arrays, so leaves never need a node record or a table slot.
// They are decoded only to render or attribute a finding.
const leafBit exprID = 1 << 30

// exprNode is one interned expression, 16 bytes so the node array the graph
// walk fills stays small. x is the payload slot of requant, scale and LUT
// nodes and the pc of an undef; every other node has x = 0. A binary node
// (eAdd…eMax), the bulk of the universe, holds its two kids in a and b, so
// probing it touches one record; any other node holds the offset and count
// of its kids in interner.kids there.
type exprNode struct {
	kind uint8
	x    int32
	a, b int32
}

// binaryKind reports whether nodes of kind keep their two kids inline.
func binaryKind(kind uint8) bool { return kind >= eAdd && kind <= eMax }

// interner hash-conses expressions into an open-addressing table keyed by an
// FNV-1a hash of (kind, x, kids). A general map with byte-slice keys
// spends the whole verification budget hashing 64-kid sum keys; mixing the
// fields directly keeps the table cheap. Most lookups skip it even so: leaves
// live outside the node array, a weight lane's first product is new without
// a probe, and the tape side finds its lanes by hint. On the ~1400-node DNN
// that took BenchmarkTapeVerify from 1.61 to 1.03 ms/op (medians of ten runs
// alternated between the two; 2-vCPU Intel Xeon, GOMAXPROCS 2, go1.24.0).
type interner struct {
	nodes []exprNode
	kids  []exprID
	tab   []int32 // open-addressed: node id + 1, 0 = empty
	mask  uint32
	inTab int // occupied slots
	// pcStart[pc] is len(nodes) when tape instruction pc began: the nodes
	// below pcStart[0] come from the graph walk, the rest from the
	// instruction whose range holds them. pcOf reads it to attribute a
	// divergence to the instruction that first computed it.
	pcStart []int32

	g      *mr.Graph
	leaves []leafInfo
}

// leafInfo is what the interner keeps of one leaf lane.
type leafInfo struct {
	// rank is len(nodes) when the leaf was minted. Commutative kids are
	// ordered by creation, and this is where the leaf falls among the nodes.
	rank int32
	// first is the binary node that first took the leaf as a kid, or -1.
	// That node skips the table: a lookup whose kid is this leaf checks it
	// here. A graph walk's map over a weight vector mints every product
	// this way, with no probe, because each weight lane is fresh.
	first exprID
}

// newInterner pre-sizes for roughly `hint` interned expressions (the table
// at load factor <= 1/2) and `leaves` leaf lanes, so verifying a large tape
// never pays rehash growth. The arrays come from buf and go back there once
// the pass is done.
func newInterner(g *mr.Graph, hint, leaves, instrs int, buf *buffers) *interner {
	size := 1 << 12
	for size < 2*hint {
		size <<= 1
	}
	nodes, kids, lv, pcStart := buf.nodes[:0], buf.kids[:0], buf.leaves[:0], buf.pcStart[:0]
	if cap(nodes) < hint+16 {
		nodes = make([]exprNode, 0, hint+16)
	}
	// A map lane's reduction interns it as one kid.
	if cap(kids) < hint+16 {
		kids = make([]exprID, 0, hint+16)
	}
	if cap(lv) < leaves {
		lv = make([]leafInfo, 0, leaves)
	}
	if cap(pcStart) < instrs {
		pcStart = make([]int32, 0, instrs)
	}
	return &interner{
		nodes:   nodes,
		kids:    kids,
		tab:     resize(buf.tab, size),
		mask:    uint32(size - 1),
		pcStart: pcStart,
		g:       g,
		leaves:  lv,
	}
}

// leaf mints the next graph input or const lane.
func (it *interner) leaf() exprID {
	id := leafBit | exprID(len(it.leaves))
	it.leaves = append(it.leaves, leafInfo{rank: int32(len(it.nodes)), first: -1})
	return id
}

// decodeLeaf returns the kind, graph node and lane of a leaf. Only findings
// decode leaves, so the linear scan is off the hot path.
func (it *interner) decodeLeaf(id exprID) (kind uint8, node, lane int32) {
	i := int(id &^ leafBit)
	for _, n := range it.g.Nodes {
		if n.Kind != mr.KInput && n.Kind != mr.KConst {
			continue
		}
		if i < n.Width {
			if n.Kind == mr.KInput {
				return eInput, int32(n.ID), int32(i)
			}
			return eConst, int32(n.ID), int32(i)
		}
		i -= n.Width
	}
	return eUndef, -1, -1 // unreachable: the walk minted every leaf
}

// pcOf is the tape instruction that first created id, or -1 when the graph
// walk did.
func (it *interner) pcOf(id exprID) int {
	if id&leafBit != 0 {
		return -1
	}
	return sort.Search(len(it.pcStart), func(pc int) bool { return it.pcStart[pc] > id }) - 1
}

func mix(h, v uint32) uint32 { return (h ^ v) * 16777619 }

// fin avalanches the FNV-style running hash before masking: interned ids are
// small sequential integers, and without final mixing they cluster into probe
// chains that dominate the verification budget.
func fin(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

func exprHash(kind uint8, x int32, kids []exprID) uint32 {
	h := mix(uint32(2166136261), uint32(kind))
	h = mix(h, uint32(x))
	for _, k := range kids {
		h = mix(h, uint32(k))
	}
	return fin(h)
}

func (it *interner) equal(id exprID, kind uint8, x int32, kids []exprID) bool {
	n := &it.nodes[id]
	if n.kind != kind || n.x != x || int(n.b) != len(kids) {
		return false
	}
	have := it.kids[n.a : n.a+n.b]
	for i := range have {
		if have[i] != kids[i] {
			return false
		}
	}
	return true
}

// intern interns a node of any kind but the binary ones, which go through
// binary().
func (it *interner) intern(kind uint8, x int32, kids []exprID) exprID {
	slot := exprHash(kind, x, kids) & it.mask
	for {
		e := it.tab[slot]
		if e == 0 {
			break
		}
		if it.equal(e-1, kind, x, kids) {
			return e - 1
		}
		slot = (slot + 1) & it.mask
	}
	id := exprID(len(it.nodes))
	off := int32(len(it.kids))
	it.kids = append(it.kids, kids...)
	it.nodes = append(it.nodes, exprNode{kind: kind, x: x, a: off, b: int32(len(kids))})
	it.insert(slot, id)
	return id
}

// insert puts id into the empty table slot slot.
func (it *interner) insert(slot uint32, id exprID) {
	it.tab[slot] = id + 1
	if it.inTab++; it.inTab*4 >= len(it.tab)*3 {
		it.grow()
	}
}

// grow at least doubles the table and rehashes every node into it, those
// that only a leaf's first use held included, at load factor <= 1/2.
func (it *interner) grow() {
	size := len(it.tab) * 2
	for size < 2*len(it.nodes) {
		size <<= 1
	}
	tab := make([]int32, size)
	mask := uint32(len(tab) - 1)
	var pair [2]exprID
	for id := range it.nodes {
		n := &it.nodes[id]
		slot := exprHash(n.kind, n.x, it.kidsOf(n, &pair)) & mask
		for tab[slot] != 0 {
			slot = (slot + 1) & mask
		}
		tab[slot] = int32(id) + 1
	}
	it.tab, it.mask, it.inTab = tab, mask, len(it.nodes)
}

// kidsOf returns the kids of n. A binary node's live inline, so they are
// copied into pair.
func (it *interner) kidsOf(n *exprNode, pair *[2]exprID) []exprID {
	if binaryKind(n.kind) {
		pair[0], pair[1] = n.a, n.b
		return pair[:]
	}
	return it.kids[n.a : n.a+n.b]
}

// commutative reports whether kind is a bit-exact commutative operator, whose
// two kids are interned in creation order.
func commutative(kind uint8) bool {
	return kind == eAdd || kind == eMul || kind == eMin || kind == eMax
}

// before orders ids by creation: nodes by id, leaves by number, and a leaf
// ahead of every node minted after it. Sorting commutative kids this way
// keeps findings rendering their operands in the order the source built them.
func (it *interner) before(a, b exprID) bool {
	switch {
	case a&leafBit == b&leafBit:
		return a < b
	case a&leafBit != 0:
		return it.leaves[a&^leafBit].rank <= b
	default:
		return a < it.leaves[b&^leafBit].rank
	}
}

// binary interns a two-kid expression, sorting the kids when the operator is
// bit-exact commutative so `mul(a,b)` and `mul(b,a)` cons to the same id.
// Two-kid nodes are the bulk of the universe (every map lane, every fused dot
// term), so the probe loop is specialised: same hash as the general path
// (grow() rehashes through exprHash), no kid-slice detour. A node whose leaf
// kid no binary node has used yet is new without a probe, and is recorded
// as that leaf's first use instead of in the table.
func (it *interner) binary(kind uint8, a, b exprID) exprID {
	if commutative(kind) && it.before(b, a) {
		a, b = b, a
	}
	fa, fb := it.firstUse(a), it.firstUse(b)
	if fa != nil && *fa < 0 || fb != nil && *fb < 0 {
		for _, f := range [2]*exprID{fa, fb} {
			if f != nil && *f < 0 {
				*f = exprID(len(it.nodes))
			}
		}
		return it.push(kind, a, b)
	}
	for _, f := range [2]*exprID{fa, fb} {
		if f != nil {
			if n := &it.nodes[*f]; n.kind == kind && n.a == a && n.b == b {
				return *f
			}
		}
	}
	h := mix(uint32(2166136261), uint32(kind))
	h = mix(h, 0)
	h = mix(h, uint32(a))
	h = mix(h, uint32(b))
	slot := fin(h) & it.mask
	for {
		e := it.tab[slot]
		if e == 0 {
			break
		}
		if n := &it.nodes[e-1]; n.kind == kind && n.a == a && n.b == b {
			return e - 1
		}
		slot = (slot + 1) & it.mask
	}
	id := it.push(kind, a, b)
	it.insert(slot, id)
	return id
}

// firstUse points at the first-use record of k when k is a leaf, else nil.
func (it *interner) firstUse(k exprID) *exprID {
	if k&leafBit == 0 {
		return nil
	}
	return &it.leaves[k&^leafBit].first
}

// push appends a binary node without interning it.
func (it *interner) push(kind uint8, a, b exprID) exprID {
	it.nodes = append(it.nodes, exprNode{kind: kind, a: a, b: b})
	return exprID(len(it.nodes) - 1)
}

// hinted is binary() for one lane of a lane-parallel instruction, given the
// id h one past the previous lane's result. The graph walk mints a map
// node's lanes at consecutive ids, so a faithful tape usually finds lane l's
// term right after lane l-1's. Hash-consing gives each key exactly one id,
// so when node h is (kind, a, b) it is the answer binary() would return; any
// other node at h, or an h outside nodes, falls back to the table probe.
func (it *interner) hinted(kind uint8, a, b, h exprID) exprID {
	if uint32(h) < uint32(len(it.nodes)) {
		n := &it.nodes[h]
		if n.kind == kind && (n.a == a && n.b == b || commutative(kind) && n.a == b && n.b == a) {
			return h
		}
	}
	return it.binary(kind, a, b)
}

// internAt is intern() given the id h where the node likely sits, as
// hinted() is for binary(): the graph walk mints a reduction right after its
// map's lanes, and a unary node's lanes one after another.
func (it *interner) internAt(kind uint8, x int32, kids []exprID, h exprID) exprID {
	if uint32(h) < uint32(len(it.nodes)) && it.equal(h, kind, x, kids) {
		return h
	}
	return it.intern(kind, x, kids)
}

// undefAt mints an expression unequal to everything else, for reads of cells
// no instruction defined. bounds() already reported the read; the unique
// node, kept out of the table, just keeps equiv from cascading false matches.
func (it *interner) undefAt(pc int) exprID {
	id := exprID(len(it.nodes))
	it.nodes = append(it.nodes, exprNode{kind: eUndef, x: int32(pc)})
	return id
}

// diverge descends a mismatching pair to the first structurally differing
// subexpression, the most precise thing to show in the finding.
func (it *interner) diverge(want, got exprID) (exprID, exprID) {
	for {
		if want == got || want&leafBit != 0 || got&leafBit != 0 {
			return want, got // distinct leaves differ, as does a leaf and a node
		}
		w, g := &it.nodes[want], &it.nodes[got]
		var wp, gp [2]exprID
		wk, gk := it.kidsOf(w, &wp), it.kidsOf(g, &gp)
		if w.kind != g.kind || w.x != g.x || len(wk) != len(gk) {
			return want, got
		}
		next := -1
		for i := range wk {
			if wk[i] != gk[i] {
				next = i
				break
			}
		}
		if next < 0 {
			return want, got // same key, distinct ids: cannot happen, stop safely
		}
		want, got = wk[next], gk[next]
	}
}

// render formats an expression to bounded depth for findings.
func (it *interner) render(id exprID, depth int) string {
	if id&leafBit != 0 {
		kind, node, lane := it.decodeLeaf(id)
		return fmt.Sprintf("%s%d[%d]", exprName[kind], node, lane)
	}
	n := &it.nodes[id]
	if n.kind == eUndef {
		return fmt.Sprintf("undef@pc%d", n.x)
	}
	name := "expr?"
	if int(n.kind) < len(exprName) {
		name = exprName[n.kind]
	}
	if n.kind == eRequant || n.kind == eScale || n.kind == eLUT {
		name = fmt.Sprintf("%s#%d", name, n.x)
	}
	if depth <= 0 {
		return name + "(…)"
	}
	var pair [2]exprID
	kids := it.kidsOf(n, &pair)
	switch {
	case len(kids) == 0:
		return name + "()"
	case len(kids) <= 3:
		s := name + "("
		for i, k := range kids {
			if i > 0 {
				s += ", "
			}
			s += it.render(k, depth-1)
		}
		return s + ")"
	default:
		return fmt.Sprintf("%s(%s, …×%d)", name, it.render(kids[0], depth-1), len(kids))
	}
}

// payloadSlot resolves a multiplier or table pointer to the graph slot that
// owns it, or a pc-unique sentinel when it aliases none (alias() reported).
func payloadSlot(id mr.NodeID, ok bool, pc int) int32 {
	if ok {
		return int32(id)
	}
	return int32(-1000 - pc)
}

func (c *checker) equiv() {
	// Size hint: the universe is dominated by one expression per non-leaf
	// graph lane (tape-side fused forms re-cons onto the same ids), plus a
	// handful of accumulators per instruction.
	width, leaves := 0, 0
	for _, n := range c.g.Nodes {
		width += n.Width
		if n.Kind == mr.KInput || n.Kind == mr.KConst {
			leaves += n.Width
		}
	}
	it := newInterner(c.g, len(c.code)+64+width-leaves, leaves, len(c.code), c.buf)
	defer func() {
		c.buf.nodes, c.buf.kids, c.buf.tab = it.nodes, it.kids, it.tab
		c.buf.leaves, c.buf.pcStart = it.leaves, it.pcStart
	}()

	// Graph side: per-lane expressions for every node. Validate guarantees
	// arguments are built before use, so one forward pass suffices.
	glanes := resize(c.buf.glanes, len(c.g.Nodes))
	c.buf.glanes = glanes
	flat := resize(c.buf.lanes, width)
	c.buf.lanes = flat
	scratch := make([]exprID, 0, 64)
	for i := range c.g.Nodes {
		n := c.g.Nodes[i]
		lanes := flat[:n.Width:n.Width]
		flat = flat[n.Width:]
		arg := func(j int) []exprID {
			if j < len(n.Args) {
				return glanes[n.Args[j]]
			}
			return nil
		}
		pick := func(ls []exprID, l int) exprID {
			switch {
			case len(ls) == 1:
				return ls[0] // width-1 broadcast, as mapreduce defines it
			case l < len(ls):
				return ls[l]
			default:
				return it.undefAt(-1)
			}
		}
		switch n.Kind {
		case mr.KInput, mr.KConst:
			for l := range lanes {
				lanes[l] = it.leaf()
			}
		case mr.KMap:
			kind := [...]uint8{mr.MAdd: eAdd, mr.MSub: eSub, mr.MMul: eMul, mr.MMin: eMin, mr.MMax: eMax}[n.Map]
			a, b := arg(0), arg(1)
			for l := range lanes {
				lanes[l] = it.binary(kind, pick(a, l), pick(b, l))
			}
		case mr.KUnary:
			kind := [...]uint8{mr.UReLU: eRelu, mr.ULeakyReLU: eLeaky, mr.UNeg: eNeg, mr.UAbs: eAbs}[n.Unary]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, 0, []exprID{pick(a, l)})
			}
		case mr.KReduce:
			kind := [...]uint8{mr.RAdd: eSum, mr.RMin: eRMin, mr.RMax: eRMax, mr.RArgMin: eArgMin, mr.RArgMax: eArgMax}[n.Reduce]
			lanes[0] = it.intern(kind, 0, arg(0))
		case mr.KConcat:
			scratch = scratch[:0]
			for j := range n.Args {
				scratch = append(scratch, arg(j)...)
			}
			copy(lanes, scratch)
			for l := len(scratch); l < len(lanes); l++ {
				lanes[l] = it.undefAt(-1)
			}
		case mr.KSlice:
			a := arg(0)
			for l := range lanes {
				lanes[l] = pick(a, n.Start+l)
			}
			if len(a) == 1 && n.Width == 1 && n.Start > 0 {
				lanes[0] = it.undefAt(-1)
			}
		case mr.KRequant, mr.KScale:
			kind := eRequant
			if n.Kind == mr.KScale {
				kind = eScale
			}
			slot, ok := c.multOf[&n.Mult]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, payloadSlot(slot, ok, -1), []exprID{pick(a, l)})
			}
		case mr.KLUT:
			slot, ok := c.lutOf[n.LUT]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(eLUT, payloadSlot(slot, ok, -1), []exprID{pick(a, l)})
			}
		}
		glanes[i] = lanes
	}

	// Tape side: symbolic execution over slot 0 of the arena.
	cells := resize(c.buf.cells, c.arena)
	c.buf.cells = cells
	for i := range cells {
		cells[i] = -1
	}
	for i := range c.g.Inputs {
		o := c.p.InputOperand(i)
		if o.Const != nil || o.Off < 0 || o.Off+o.W > c.arena {
			continue
		}
		in := glanes[c.g.Inputs[i]]
		for l := 0; l < o.W && l < len(in); l++ {
			cells[o.Off+l] = in[l]
		}
	}

	// wlanes resolves a constant-backed operand to the graph-side lane array
	// of the const node its storage aliases (nil when it aliases none, in
	// which case every read is undef — alias() already reported it). Hoisting
	// the resolution per operand keeps the map lookup out of per-lane loops.
	wlanes := func(o sched.Operand) []exprID {
		if o.Const == nil {
			return nil
		}
		if id := c.constNode(o); id >= 0 {
			return glanes[id]
		}
		return nil
	}

	for pc := range c.code {
		ins := &c.code[pc]
		it.pcStart = append(it.pcStart, int32(len(it.nodes)))
		aW, bW, cW := wlanes(ins.A), wlanes(ins.B), wlanes(ins.C)
		read := func(o sched.Operand, w []exprID, l int) exprID {
			if o.Const != nil {
				if idx := o.Off + l; idx >= 0 && idx < len(w) {
					return w[idx]
				}
				return it.undefAt(pc)
			}
			if idx := o.Off + l; idx >= 0 && idx < c.arena && cells[idx] >= 0 {
				return cells[idx]
			}
			return it.undefAt(pc)
		}
		bLane := func(l int) exprID {
			if ins.B.W == 1 {
				return read(ins.B, bW, 0)
			}
			return read(ins.B, bW, l)
		}
		write := func(l int, e exprID) {
			if idx := ins.Dst + l; idx >= 0 && idx < c.arena {
				cells[idx] = e
			}
		}

		switch ins.Op {
		case sched.OpAdd, sched.OpSub, sched.OpMul, sched.OpMin, sched.OpMax:
			kind := [...]uint8{eAdd, eSub, eMul, eMin, eMax}[ins.Op-sched.OpAdd]
			w := min(ins.W, ins.A.W)
			e := exprID(-1)
			for l := 0; l < w; l++ {
				e = it.hinted(kind, read(ins.A, aW, l), bLane(l), e+1)
				write(l, e)
			}
		case sched.OpRelu, sched.OpLeaky, sched.OpNeg, sched.OpAbs:
			kind := [...]uint8{eRelu, eLeaky, eNeg, eAbs}[ins.Op-sched.OpRelu]
			w := min(ins.W, ins.A.W)
			e := exprID(-1)
			for l := 0; l < w; l++ {
				e = it.internAt(kind, 0, []exprID{read(ins.A, aW, l)}, e+1)
				write(l, e)
			}
		case sched.OpSum, sched.OpRedMin, sched.OpRedMax, sched.OpArgMin, sched.OpArgMax:
			kind := [...]uint8{eSum, eRMin, eRMax, eArgMin, eArgMax}[ins.Op-sched.OpSum]
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				scratch = append(scratch, read(ins.A, aW, l))
			}
			write(0, it.intern(kind, 0, scratch))
		case sched.OpRequant, sched.OpScale:
			kind := eRequant
			if ins.Op == sched.OpScale {
				kind = eScale
			}
			slot, ok := c.multOf[ins.Mult]
			x := payloadSlot(slot, ok && ins.Mult != nil, pc)
			w := min(ins.W, ins.A.W)
			e := exprID(-1)
			for l := 0; l < w; l++ {
				e = it.internAt(kind, x, []exprID{read(ins.A, aW, l)}, e+1)
				write(l, e)
			}
		case sched.OpLUT:
			slot, ok := c.lutOf[ins.LUT]
			x := payloadSlot(slot, ok && ins.LUT != nil, pc)
			w := min(ins.W, ins.A.W)
			e := exprID(-1)
			for l := 0; l < w; l++ {
				e = it.internAt(eLUT, x, []exprID{read(ins.A, aW, l)}, e+1)
				write(l, e)
			}
		case sched.OpCopy:
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, read(ins.A, aW, l))
			}
		case sched.OpDot, sched.OpDotAdd:
			scratch = scratch[:0]
			p := exprID(-1)
			for l := 0; l < ins.A.W; l++ {
				p = it.hinted(eMul, read(ins.A, aW, l), bLane(l), p+1)
				scratch = append(scratch, p)
			}
			e := it.internAt(eSum, 0, scratch, p+1)
			if ins.Op == sched.OpDotAdd {
				e = it.hinted(eAdd, e, read(ins.C, cW, 0), e+1)
			}
			write(0, e)
		case sched.OpSqDist:
			scratch = scratch[:0]
			d, p := exprID(-1), exprID(-1)
			for l := 0; l < ins.A.W; l++ {
				d = it.hinted(eSub, read(ins.A, aW, l), bLane(l), d+1)
				p = it.hinted(eMul, d, d, p+1)
				scratch = append(scratch, p)
			}
			write(0, it.internAt(eSum, 0, scratch, p+1))
		}
	}

	// Compare every declared output, lane by lane; report the first
	// diverging lane per output, attributed to the instruction that built
	// the first differing subexpression.
	for i, id := range c.g.Outputs {
		want := glanes[id]
		o := c.p.OutputOperand(i)
		for l := 0; l < len(want) && l < o.W; l++ {
			var got exprID = -1
			if o.Const != nil {
				// Resolve through the graph-side lane table, exactly like a
				// tape-side const read: leaves never live in the intern
				// table, so the lane table is the only place to find them.
				if cid := c.constNode(o); cid >= 0 && o.Off+l < len(glanes[cid]) {
					got = glanes[cid][o.Off+l]
				}
			} else if idx := o.Off + l; idx >= 0 && idx < c.arena {
				got = cells[idx]
			}
			if got < 0 {
				continue // never computed: bounds() already reported
			}
			if got == want[l] {
				continue
			}
			dw, dg := it.diverge(want[l], got)
			pc := it.pcOf(dg)
			if pc < 0 && o.Const == nil {
				if idx := o.Off + l; idx >= 0 && idx < len(c.writer) && c.writer[idx] >= 0 {
					pc = int(c.writer[idx]) // diverging expr predates the tape: blame the cell's writer
				}
			}
			c.finding(pc, id, SevError, CheckEquiv, Interval{},
				"output %d lane %d computes %s, graph defines %s (diverges at %s vs %s)",
				i, l, it.render(got, 3), it.render(want[l], 3),
				it.render(dg, 2), it.render(dw, 2))
			break
		}
	}
}

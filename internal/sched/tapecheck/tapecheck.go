// Package tapecheck is a static translation validator for compiled
// instruction tapes: it proves, without running a packet, that a
// sched.Program computes exactly what its source mapreduce.Graph computes
// and touches exactly the storage it is allowed to touch. graphcheck gates
// graphs before they cross onto the data plane; tapecheck gates the
// *compiled artifact* — a fusion-peephole bug that survives the fuzz corpus
// becomes a named finding at compile time, not a wrong verdict in
// production.
//
// One pass over the tape performs four analyses:
//
//  1. Semantic equivalence: every instruction's effect is re-derived
//     symbolically, per output lane, as a hash-consed expression over the
//     graph's inputs and weight slots — fused forms included (a dot is
//     sum(sat32(a·b)), a dot+bias is sat32(sat32(dot)+c), a squared
//     distance is sum(sat32(sat32(a−b)²)), concat sinks write producer
//     results straight into the concatenation's window). The expression at
//     each declared output cell must match, structurally and bit-exactly,
//     the expression the graph defines for that output lane. A mismatch is
//     reported at the instruction that produced the first diverging
//     subexpression.
//
//  2. Interval soundness: graphcheck's exported transfer kernel
//     (graphcheck.MapTransfer et al.) is rerun over the tape's arena cells,
//     including fusion-introduced temporaries that have no graph node (the
//     per-term products of a fused dot, the pre-bias accumulator of a
//     dot+add), proving no compiled intermediate can silently saturate the
//     Fix32 datapath where the graph could not.
//
//  3. Aliasing audit: every constant-backed operand must alias exactly one
//     graph KConst's storage (window in range), every multiplier pointer
//     exactly one KRequant/KScale node's payload, every table pointer
//     exactly one KLUT's table — so a live UpdateWeights, which mutates
//     those payloads in place, changes exactly the weights it means to and
//     the tape observes the push coherently.
//
//  4. Arena and schedule bounds: every operand and destination window of
//     the structure-of-arrays arena stays in bounds across all batch slots,
//     no cell is read before it is written or written by two instructions,
//     every lane reads the same producer in every batch slot (so a
//     corrupted stride cannot read a neighbouring packet's data), and the
//     Plan's issue bundles are re-verified against the cgra.GridSpec CU/MU
//     capacities and the II the scheduler claimed.
//
// Verify is pure and allocation-bounded. On the ~1400-node DNN,
// BenchmarkTapeVerify measures 1.03 ms/op (median of ten runs; 1.61 ms
// before the interner kept leaves off its node array and found tape lanes by
// hint; 2-vCPU Intel Xeon, GOMAXPROCS 2, go1.24.0), inside the 2 ms budget
// TestVerifyLargestDNNBudget enforces. Importing this package
// registers it as sched's compile gate: sched.Compile refuses to return a
// program with error-severity findings (sched.CompileUnverified opts out).
// core.Device.InstallModel refuses the install when a tape is rejected, and
// `taurus-compile -check` prints the report next to graphcheck's.
package tapecheck

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// ErrBadTape is wrapped by every error Report.Err returns, so install paths
// can classify a tapecheck rejection with errors.Is.
var ErrBadTape = errors.New("tapecheck: program rejected")

// Severity is graphcheck's severity scale; the two reports rank findings
// identically.
type Severity = graphcheck.Severity

// Severity levels, re-exported so callers need not import graphcheck.
const (
	SevInfo    = graphcheck.SevInfo
	SevWarning = graphcheck.SevWarning
	SevError   = graphcheck.SevError
)

// Interval is graphcheck's inclusive integer range.
type Interval = graphcheck.Interval

// Analysis names the check a finding came from.
type Analysis string

const (
	// CheckEquiv findings come from the symbolic-equivalence analysis.
	CheckEquiv Analysis = "equiv"
	// CheckRange findings come from the interval-soundness analysis.
	CheckRange Analysis = "range"
	// CheckAlias findings come from the weight-aliasing audit.
	CheckAlias Analysis = "alias"
	// CheckBounds findings come from the arena bounds/liveness analysis.
	CheckBounds Analysis = "bounds"
	// CheckPlan findings come from the schedule re-verification.
	CheckPlan Analysis = "plan"
)

// Finding is one diagnostic, anchored to a tape instruction (PC >= 0) or to
// the program as a whole (PC < 0, e.g. schedule-level findings, which name
// the graph node instead).
type Finding struct {
	// PC is the offending instruction's index in Program.Code, or -1.
	PC int
	// Op is the instruction's mnemonic ("" for program-level findings).
	Op string
	// Node is the graph node the finding is attributable to, or -1.
	Node mr.NodeID
	// Severity ranks the finding; one SevError rejects the program.
	Severity Severity
	// Check names the analysis that produced the finding.
	Check Analysis
	// Msg is the human-readable diagnostic.
	Msg string
	// Range is the witness interval, when the range analysis produced it.
	Range Interval
}

// String formats the finding.
func (f Finding) String() string {
	switch {
	case f.PC >= 0:
		return fmt.Sprintf("%s [%s] pc %d (%s): %s", f.Severity, f.Check, f.PC, f.Op, f.Msg)
	case f.Node >= 0:
		return fmt.Sprintf("%s [%s] node %d: %s", f.Severity, f.Check, f.Node, f.Msg)
	default:
		return fmt.Sprintf("%s [%s]: %s", f.Severity, f.Check, f.Msg)
	}
}

// Report is the result of verifying one compiled program.
type Report struct {
	// Graph is the source graph's name.
	Graph string
	// Instrs, Arena and Batch describe the tape: instruction count, arena
	// size in lanes, and compiled batch capacity.
	Instrs int
	Arena  int
	Batch  int
	// Findings holds every diagnostic in tape order.
	Findings []Finding
}

// OK reports whether the program passed (no error-severity findings).
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return false
		}
	}
	return true
}

// Err returns nil when the program passed, or an error (wrapping ErrBadTape)
// describing the first error-severity finding.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return fmt.Errorf("%w: graph %q: %s", ErrBadTape, r.Graph, f)
		}
	}
	return nil
}

// String renders the full report, the output of `taurus-compile -check`.
func (r *Report) String() string {
	var b strings.Builder
	status := "OK"
	if !r.OK() {
		status = "REJECTED"
	}
	fmt.Fprintf(&b, "tapecheck: %q — %s (%d instrs, arena %d lanes, batch %d)\n",
		r.Graph, status, r.Instrs, r.Arena, r.Batch)
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "  findings:  none (equiv, range, alias, bounds, plan all clean)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  findings:\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// Options parameterises verification.
type Options struct {
	// InputRange, when set, overrides the seed interval of declared input i
	// (by position in the graph's Inputs), exactly as
	// graphcheck.Options.InputRange does. Return ok=false to keep the
	// default int8 code range.
	InputRange func(i int, name string) (Interval, bool)
}

// Verify runs every analysis on p with default options.
func Verify(p *sched.Program) *Report { return VerifyWith(p, Options{}) }

// Check is the gate form of Verify: nil when the tape is a faithful, safe
// translation, an error (wrapping ErrBadTape) otherwise. sched.Compile calls
// this on every compiled tape once tapecheck is linked in.
//
// Translation-class findings (equiv, alias, bounds, plan) always gate. A
// range finding gates only when the source graph itself verifies clean under
// graphcheck: the tape's interval analysis exists to prove the compiled
// intermediates cannot saturate where the graph could not, and a tape that
// merely inherits the graph's own saturation is still a faithful translation
// — rejecting the graph is graphcheck's job, on the push path.
func Check(p *sched.Program) error {
	r := Verify(p)
	var rangeErr *Finding
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Severity != SevError {
			continue
		}
		if f.Check != CheckRange {
			return fmt.Errorf("%w: graph %q: %s", ErrBadTape, r.Graph, f)
		}
		if rangeErr == nil {
			rangeErr = f
		}
	}
	if rangeErr != nil && graphcheck.Verify(p.Graph()).OK() {
		return fmt.Errorf("%w: graph %q: %s", ErrBadTape, r.Graph, rangeErr)
	}
	return nil
}

func init() {
	// Register as sched's compile-time gate: any binary that links tapecheck
	// (core does) refuses to hand out unverified tapes.
	sched.SetVerifier(Check)
}

// VerifyWith runs every analysis on p against the given options.
func VerifyWith(p *sched.Program, opts Options) *Report {
	if p == nil {
		return &Report{Graph: "<nil>", Findings: []Finding{{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds, Msg: "program is nil",
		}}}
	}
	g := p.Graph()
	r := &Report{Instrs: len(p.Code()), Arena: p.ArenaSize(), Batch: p.MaxBatch()}
	if g == nil {
		r.Graph = "<nil>"
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds, Msg: "program has no source graph",
		})
		return r
	}
	r.Graph = g.Name
	if err := g.Validate(); err != nil {
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds,
			Msg: "source graph no longer validates: " + err.Error(),
		})
		return r
	}
	buf := bufPool.Get().(*buffers)
	defer bufPool.Put(buf)
	c := &checker{
		p: p, g: g, r: r,
		code:  p.Code(),
		batch: p.MaxBatch(),
		arena: p.ArenaSize(),
		buf:   buf,
	}
	c.alias()  // storage identity first: equiv resolves const leaves through it
	c.bounds() // widths, windows, liveness, slot uniformity
	c.plan()   // schedule capacity/precedence re-verification
	c.ranges(opts)
	c.equiv()
	return r
}

// checker carries the shared state of one verification pass.
type checker struct {
	p     *sched.Program
	g     *mr.Graph
	r     *Report
	code  []sched.Instr
	batch int
	arena int

	// Storage identity, built by alias(): the unique graph slot behind each
	// aliased payload.
	constOf map[*int32]mr.NodeID
	multOf  map[*fixed.Multiplier]mr.NodeID
	lutOf   map[*mr.LUT]mr.NodeID

	// writer[cell] is the pc that defines each arena cell (slot-expanded),
	// -2 for input-seeded cells, -1 for never-written. Built by bounds().
	writer []int32

	buf *buffers
}

// buffers are the arrays each pass sizes by the arena or by the expression
// universe. Every install and weight push verifies a tape, and a large tape
// needs several hundred kilobytes of them; recycling them through bufPool
// spares each pass the fresh-page faults and the GC work.
type buffers struct {
	writer  []int32
	ivs     []Interval
	defined []bool
	cells   []exprID
	lanes   []exprID
	glanes  [][]exprID
	nodes   []exprNode
	kids    []exprID
	tab     []int32
	leaves  []leafInfo
	pcStart []int32
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// resize returns s cleared and cut to length n, reallocating only when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// finding appends one diagnostic for instruction pc (or -1).
func (c *checker) finding(pc int, node mr.NodeID, sev Severity, check Analysis, rng Interval, format string, args ...any) {
	op := ""
	if pc >= 0 && pc < len(c.code) {
		op = c.code[pc].Op.String()
	}
	c.r.Findings = append(c.r.Findings, Finding{
		PC: pc, Op: op, Node: node, Severity: sev, Check: check,
		Msg: fmt.Sprintf(format, args...), Range: rng,
	})
}

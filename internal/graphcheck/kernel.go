// The interval transfer kernel: the per-lane [lo, hi] semantics of every
// datapath operation, exported so other static analyses can rerun the exact
// same abstract interpretation graphcheck uses. internal/sched/tapecheck
// replays these transfer functions over compiled instruction tapes —
// including fusion-introduced temporaries that have no graph node — to prove
// a compiled program cannot saturate the Fix32 datapath anywhere the source
// graph could not.
//
// Every transfer returns the *raw* feasible interval of the mathematical
// result; it is the caller's job to apply the datapath's clamping discipline
// (ClampFix32 for the silently saturating map/unary/reduce ops, ClampInt8
// for a requant, the index clamp for a LUT) and to decide which clamps are
// findings. That split is deliberate: the raw interval is the overflow
// witness a finding reports.
package graphcheck

import (
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

// Fix32Range is the legal runtime range of a lane value, [Fix32.Min,
// Fix32.Max] as an Interval.
func Fix32Range() Interval { return fix32 }

// Int8Range is the quantised code range [-128, 127] every graph input and
// requant output lives in.
func Int8Range() Interval { return Interval{int8Lo, int8Hi} }

// Point returns the singleton interval {v}.
func Point(v int64) Interval { return point(v) }

// Union returns the smallest interval covering both.
func (iv Interval) Union(o Interval) Interval { return iv.union(o) }

// ClampFix32 clamps iv to the Fix32 range and reports whether any feasible
// value lay outside it — i.e. whether the saturating datapath could clip.
func ClampFix32(iv Interval) (Interval, bool) {
	clipped := iv.Lo < fix32.Lo || iv.Hi > fix32.Hi
	if iv.Lo < fix32.Lo {
		iv.Lo = fix32.Lo
	}
	if iv.Hi > fix32.Hi {
		iv.Hi = fix32.Hi
	}
	return iv, clipped
}

// MapTransfer returns the raw interval of `a op b` for one lane pair. The
// result is unclamped: map ops run through Fix32.Saturate at runtime, so a
// result outside Fix32Range witnesses silent saturation.
func MapTransfer(op mr.MapOp, a, b Interval) Interval {
	switch op {
	case mr.MAdd:
		return Interval{a.Lo + b.Lo, a.Hi + b.Hi}
	case mr.MSub:
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	case mr.MMul:
		// Endpoint products bound a monotone-by-parts bilinear map.
		p0, p1, p2, p3 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
		return Interval{min(p0, p1, p2, p3), max(p0, p1, p2, p3)}
	case mr.MMin:
		return Interval{min64(a.Lo, b.Lo), min64(a.Hi, b.Hi)}
	case mr.MMax:
		return Interval{max64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
	}
	return fix32
}

// UnaryTransfer returns the raw interval of `op a` for one lane. Endpoint
// evaluation is exact: every unary op is monotone (Abs by cases).
func UnaryTransfer(op mr.UnaryOp, a Interval) Interval {
	switch op {
	case mr.UReLU:
		return Interval{max64(0, a.Lo), max64(0, a.Hi)}
	case mr.ULeakyReLU:
		return Interval{leaky(a.Lo), leaky(a.Hi)}
	case mr.UNeg:
		return Interval{-a.Hi, -a.Lo}
	case mr.UAbs:
		switch {
		case a.Lo >= 0:
			return a
		case a.Hi <= 0:
			return Interval{-a.Hi, -a.Lo}
		default:
			return Interval{0, max64(a.Hi, -a.Lo)}
		}
	}
	return fix32
}

// SumTransfer returns the raw interval of the int64 lane sum an RAdd (or a
// fused dot product's accumulator) computes before its single final
// saturation. Summands are runtime int32 lanes, so the 64-bit sum is exact.
func SumTransfer(lanes []Interval) Interval {
	var iv Interval
	for _, av := range lanes {
		iv.Lo += av.Lo
		iv.Hi += av.Hi
	}
	return iv
}

// ReduceTransfer returns the raw interval of `op lanes`. RAdd is unclamped
// (see SumTransfer); the min/max folds cannot leave the lanes' hull; the
// argmin/argmax result is an index.
func ReduceTransfer(op mr.ReduceOp, lanes []Interval) Interval {
	switch op {
	case mr.RAdd:
		return SumTransfer(lanes)
	case mr.RMin:
		iv := lanes[0]
		for _, av := range lanes[1:] {
			iv = Interval{min64(iv.Lo, av.Lo), min64(iv.Hi, av.Hi)}
		}
		return iv
	case mr.RMax:
		iv := lanes[0]
		for _, av := range lanes[1:] {
			iv = Interval{max64(iv.Lo, av.Lo), max64(iv.Hi, av.Hi)}
		}
		return iv
	case mr.RArgMin, mr.RArgMax:
		return Interval{0, int64(len(lanes) - 1)}
	}
	return fix32
}

// MultTransfer returns the raw interval of m.Apply over acc — the rounded
// shift-multiply both KRequant and KScale run. Monotone nondecreasing in acc
// (M0 is non-negative), so endpoint evaluation is exact. The caller's acc
// must describe runtime int32 values so the 64-bit product cannot overflow.
func MultTransfer(m fixed.Multiplier, acc Interval) Interval {
	return Interval{applyMult(m, acc.Lo), applyMult(m, acc.Hi)}
}

// Requant8Transfer runs a KRequant's semantics: MultTransfer then the int8
// clamp of ApplySat8. It returns the clamped output interval (a fully
// clipped lane pins to the boundary it clips against), the raw pre-clamp
// interval as the diagnostic witness, and whether *every* feasible value
// clips — a degenerate, miscalibrated multiplier.
func Requant8Transfer(m fixed.Multiplier, acc Interval) (out, raw Interval, fullyClipped bool) {
	raw = MultTransfer(m, acc)
	out = raw
	fullyClipped = out.Lo > int8Hi || out.Hi < int8Lo
	if out.Lo < int8Lo {
		out.Lo = int8Lo
	}
	if out.Hi > int8Hi {
		out.Hi = int8Hi
	}
	if out.Lo > out.Hi { // fully clipped: pinned to one boundary
		if raw.Hi < int8Lo {
			out = point(int8Lo)
		} else {
			out = point(int8Hi)
		}
	}
	return out, raw, fullyClipped
}

// ScaleTransfer runs a KScale's semantics: MultTransfer with int32
// truncation. Unlike the saturating datapath a feasible value outside
// Fix32Range does not clip, it wraps — always corruption. On wrap the
// output widens to the full Fix32 range (the wrapped value can land
// anywhere); raw is the pre-truncation witness.
func ScaleTransfer(m fixed.Multiplier, acc Interval) (out, raw Interval, wraps bool) {
	raw = MultTransfer(m, acc)
	out = raw
	if out.Lo < fix32.Lo || out.Hi > fix32.Hi {
		return fix32, raw, true
	}
	return out, raw, false
}

// LUTIndex runs a KLUT's index computation: the table multiplier followed by
// the index clamp into [-LUTSize/2, LUTSize/2-1]. A fully clamped index pins
// to the boundary it clips against; allOutside reports that *no* feasible
// index lands inside the table domain (the raw interval is the witness).
func LUTIndex(l *mr.LUT, acc Interval) (idx, raw Interval, allOutside bool) {
	const idxLo, idxHi = -mr.LUTSize / 2, mr.LUTSize/2 - 1
	raw = MultTransfer(l.Mult, acc)
	idx = raw
	allOutside = idx.Lo > idxHi || idx.Hi < idxLo
	if idx.Lo < idxLo {
		idx.Lo = idxLo
	}
	if idx.Hi > idxHi {
		idx.Hi = idxHi
	}
	if idx.Lo > idx.Hi { // fully clamped to one end
		if raw.Hi < idxLo {
			idx = point(idxLo)
		} else {
			idx = point(idxHi)
		}
	}
	return idx, raw, allOutside
}

// LUTRange returns the min/max table value over the feasible index window.
// Callers doing many lookups against the same table should summarise it
// (the tape verifier keeps per-block ranges; see tapecheck's lutBlocks).
func LUTRange(l *mr.LUT, idx Interval) Interval {
	iv := point(int64(l.Table[idx.Lo+mr.LUTSize/2]))
	for i := idx.Lo + 1; i <= idx.Hi; i++ {
		iv = iv.union(point(int64(l.Table[i+mr.LUTSize/2])))
	}
	return iv
}

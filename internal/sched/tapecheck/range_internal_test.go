package tapecheck

import (
	"math/rand"
	"testing"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// TestLUTBlocksMatchScan: the block summary answers every window exactly as
// graphcheck's full scan does, including windows inside one block, windows
// straddling two, and the full domain.
func TestLUTBlocksMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var l mr.LUT
	for i := range l.Table {
		l.Table[i] = int8(rng.Intn(256) - 128)
	}
	s := summarise(&l)
	const half = mr.LUTSize / 2
	for lo := int64(-half); lo < half; lo += 7 {
		for hi := lo; hi < half; hi += 13 {
			idx := Interval{Lo: lo, Hi: hi}
			if got, want := s.rangeOf(&l, idx), graphcheck.LUTRange(&l, idx); got != want {
				t.Fatalf("window %v: summary %v, scan %v", idx, got, want)
			}
		}
	}
	full := Interval{Lo: -half, Hi: half - 1}
	if got, want := s.rangeOf(&l, full), graphcheck.LUTRange(&l, full); got != want {
		t.Fatalf("full domain: summary %v, scan %v", got, want)
	}
}

package kernreg_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/conformance"
	"repro/kernreg"
)

// FuzzSelectBandwidth throws arbitrary byte-decoded samples at every
// public method and checks the API contract: either a descriptive error,
// or a selection whose bandwidth is a finite positive member of the
// reported grid with a score that is the minimum of the reported score
// vector. Seeds come from the conformance corpus so the fuzzer starts
// from the adversarial shapes (duplicates, constant Y, n=2) rather than
// random noise.

var fuzzMethods = []kernreg.Method{
	kernreg.MethodSorted,
	kernreg.MethodSortedParallel,
	kernreg.MethodSortedF32,
	kernreg.MethodNaive,
	kernreg.MethodNumerical,
	kernreg.MethodGPU,
	kernreg.MethodGPUTiled,
	kernreg.MethodTwoPointer,
	kernreg.MethodTwoPointerParallel,
	kernreg.MethodTwoPointerF32,
	kernreg.MethodBagged,
	kernreg.MethodWindow,
}

// encodeSample packs up to max (x, y) pairs as little-endian float64
// bits, the wire format both fuzz targets share.
func encodeSample(x, y []float64, max int) []byte {
	n := len(x)
	if n > max {
		n = max
	}
	out := make([]byte, 0, 16*n)
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x[i]))
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(y[i]))
		out = append(out, b[:]...)
	}
	return out
}

func decodeSample(data []byte, max int) (x, y []float64) {
	n := len(data) / 16
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])))
		y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
	}
	return x, y
}

// FuzzBaggedSelect drives MethodBagged with fuzzed bag parameters: the
// contract is a descriptive error (bad bag size for the sample) or a
// selection whose bandwidth is finite positive — a grid point when the
// run degenerated to the exact sweep (m == n), otherwise a continuum
// value in (0, grid max]. Every accepted selection must reproduce bit
// for bit on a second call: determinism is part of the bagged API.
func FuzzBaggedSelect(f *testing.F) {
	for _, d := range conformance.Corpus() {
		if d.Heavy {
			continue
		}
		f.Add(encodeSample(d.X, d.Y, 64), uint8(d.K), uint8(len(d.X)/2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, rByte, mByte, seedByte uint8) {
		x, y := decodeSample(data, 64)
		bags := 1 + int(rByte)%8
		// The bag size ranges past n so the fuzzer also exercises the
		// "bag size exceeds the sample size" rejection.
		bagSize := 2 + int(mByte)%96
		seed := int64(seedByte)
		opts := []kernreg.Option{
			kernreg.WithMethod(kernreg.MethodBagged), kernreg.GridSize(16),
			kernreg.Bags(bags), kernreg.BagSize(bagSize), kernreg.Seed(seed),
		}
		sel, err := kernreg.SelectBandwidth(x, y, opts...)
		if err != nil {
			return // rejection is within contract; no selection to check
		}
		if !(sel.Bandwidth > 0) || math.IsInf(sel.Bandwidth, 0) || math.IsNaN(sel.Bandwidth) {
			t.Fatalf("bags=%d m=%d: bandwidth %g is not finite positive", bags, bagSize, sel.Bandwidth)
		}
		if sel.Index >= 0 {
			// Degenerate m == n path: an exact grid selection.
			if sel.Index >= len(sel.Grid) || sel.Bandwidth != sel.Grid[sel.Index] {
				t.Fatalf("degenerate bagged bandwidth %g is not the grid point at index %d", sel.Bandwidth, sel.Index)
			}
		} else {
			if sel.Index != -1 || sel.Bandwidth > sel.Grid[len(sel.Grid)-1] {
				t.Fatalf("bagged index %d, bandwidth %g vs grid max %g", sel.Index, sel.Bandwidth, sel.Grid[len(sel.Grid)-1])
			}
		}
		again, err := kernreg.SelectBandwidth(x, y, opts...)
		if err != nil {
			t.Fatalf("second call errored after a successful first: %v", err)
		}
		// Bit comparison: a degenerate sample can legally yield a NaN CV,
		// which must still reproduce exactly.
		if math.Float64bits(again.Bandwidth) != math.Float64bits(sel.Bandwidth) ||
			math.Float64bits(again.CV) != math.Float64bits(sel.CV) || again.Index != sel.Index {
			t.Fatalf("bagged selection is not deterministic: (%g, %g, %d) vs (%g, %g, %d)",
				sel.Bandwidth, sel.CV, sel.Index, again.Bandwidth, again.CV, again.Index)
		}
	})
}

func FuzzSelectBandwidth(f *testing.F) {
	for _, d := range conformance.Corpus() {
		if d.Heavy {
			continue
		}
		f.Add(encodeSample(d.X, d.Y, 64), uint8(d.K), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, kByte, methodByte uint8) {
		x, y := decodeSample(data, 64)
		k := 1 + int(kByte)%32
		m := fuzzMethods[int(methodByte)%len(fuzzMethods)]
		sel, err := kernreg.SelectBandwidth(x, y,
			kernreg.WithMethod(m), kernreg.GridSize(k), kernreg.KeepScores())
		if err != nil {
			return // rejection is within contract; no selection to check
		}
		if !(sel.Bandwidth > 0) || math.IsInf(sel.Bandwidth, 0) || math.IsNaN(sel.Bandwidth) {
			t.Fatalf("method %v: bandwidth %g is not finite positive", m, sel.Bandwidth)
		}
		if m == kernreg.MethodNumerical {
			if sel.Index != -1 || sel.Grid != nil {
				t.Fatalf("numerical selection reports grid artifacts: index %d grid %v", sel.Index, sel.Grid)
			}
			return
		}
		if m == kernreg.MethodBagged && sel.Index == -1 {
			// Non-degenerate bagged path: the rescaled bag mean is a
			// continuum value bounded by the grid maximum, with no scores.
			if sel.Bandwidth > sel.Grid[len(sel.Grid)-1] || len(sel.Scores) != 0 {
				t.Fatalf("bagged bandwidth %g exceeds grid max %g or carries %d scores",
					sel.Bandwidth, sel.Grid[len(sel.Grid)-1], len(sel.Scores))
			}
			return
		}
		if sel.Index < 0 || sel.Index >= len(sel.Grid) {
			t.Fatalf("method %v: index %d outside grid of %d", m, sel.Index, len(sel.Grid))
		}
		h64 := sel.Grid[sel.Index]
		if h32 := float64(float32(h64)); sel.Bandwidth != h64 && sel.Bandwidth != h32 {
			t.Fatalf("method %v: bandwidth %g is neither grid point %g nor its float32 image %g",
				m, sel.Bandwidth, h64, h32)
		}
		if len(sel.Scores) != len(sel.Grid) {
			t.Fatalf("method %v: %d scores for %d grid points", m, len(sel.Scores), len(sel.Grid))
		}
		for j, s := range sel.Scores {
			if !math.IsNaN(s) && s < sel.CV {
				t.Fatalf("method %v: score %g at index %d beats reported CV %g at index %d",
					m, s, j, sel.CV, sel.Index)
			}
		}
	})
}

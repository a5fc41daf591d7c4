package core_test

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mathx"
)

// FuzzTiledVsSorted differentially fuzzes the two float32 pipelines that
// must stay in lockstep: the sequential sorted reference (Program 3) and
// the tiled device pipeline, the latter driven through arbitrary chunk
// sizes so every chunk boundary n%C is exercised. Seeds come from the
// conformance corpus. Chunking only changes scratch reuse, never the
// accumulation order, so the score vectors must agree to float32
// re-association resolution; arg-min indexes may differ only on a
// near-tie the objective itself cannot separate.

func fuzzEncode(x, y []float64, max int) []byte {
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

func fuzzDecode(data []byte, max int) (x, y []float64) {
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

func FuzzTiledVsSorted(f *testing.F) {
	for _, d := range conformance.Corpus() {
		if d.Heavy || len(d.X) > 128 {
			continue
		}
		f.Add(fuzzEncode(d.X, d.Y, 128), uint8(d.K), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, kByte, chunkByte uint8) {
		x, y := fuzzDecode(data, 128)
		if len(x) < 2 {
			t.Skip("need two observations")
		}
		// The pipelines are float32: keep inputs in a range where the
		// narrowing itself is benign, so disagreement means a real bug.
		for i := range x {
			if !mathx.IsFinite(x[i]) || math.Abs(x[i]) > 1e6 ||
				!mathx.IsFinite(y[i]) || math.Abs(y[i]) > 1e6 {
				t.Skip("out of float32-safe range")
			}
		}
		k := 2 + int(kByte)%16
		g, err := bandwidth.DefaultGrid(x, k)
		if err != nil {
			t.Skip("degenerate domain")
		}
		chunk := 1 + int(chunkByte)%len(x)

		ref, err := core.SortedSequential(context.Background(), x, y, g, bandwidth.Compensated)
		if err != nil {
			t.Fatalf("sorted reference: %v", err)
		}
		tiled, _, usedChunk, err := core.SelectGPUTiled(context.Background(), x, y, g, core.TiledOptions{ChunkSize: chunk, KeepScores: true})
		if err != nil {
			t.Fatalf("tiled (chunk %d): %v", chunk, err)
		}
		if usedChunk != chunk {
			t.Fatalf("requested chunk %d, pipeline used %d", chunk, usedChunk)
		}

		const tol = 1e-3
		if len(tiled.Scores) != len(ref.Scores) {
			t.Fatalf("score lengths differ: tiled %d vs sorted %d", len(tiled.Scores), len(ref.Scores))
		}
		for j := range ref.Scores {
			a, b := ref.Scores[j], tiled.Scores[j]
			if mathx.IsFinite(a) != mathx.IsFinite(b) {
				t.Fatalf("score %d finiteness differs: sorted %g vs tiled %g (chunk %d)", j, a, b, chunk)
			}
			if mathx.IsFinite(a) && mathx.RelDiff(a, b) > tol {
				t.Fatalf("score %d: sorted %g vs tiled %g, reldiff %g > %g (chunk %d, n %d)",
					j, a, b, mathx.RelDiff(a, b), tol, chunk, len(x))
			}
		}
		if tiled.Index != ref.Index {
			// Acceptable only when the reference objective cannot separate
			// the two grid points.
			a, b := ref.Scores[ref.Index], ref.Scores[tiled.Index]
			if mathx.IsFinite(a) && mathx.IsFinite(b) && mathx.RelDiff(a, b) > tol {
				t.Fatalf("arg-min differs and is no near-tie: sorted index %d (cv %g) vs tiled index %d (ref cv %g), chunk %d",
					ref.Index, a, tiled.Index, b, chunk)
			}
		}
	})
}

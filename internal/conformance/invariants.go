package conformance

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

// Metamorphic invariance checks, generalising the CVScore properties of
// internal/bandwidth/invariance_test.go to every registered backend:
// the kernel weight depends only on (X_i − X_l)/h, so a selection must
// be invariant to translating X, equivariant to scaling X (with the
// grid scaling accordingly), invariant to permuting the observations,
// and invariant to flipping the sign of Y.
//
// Two of the transforms commute with floating-point arithmetic exactly:
//
//   - scale-x-pow2 multiplies X and the grid by 2. Multiplication by a
//     power of two only shifts exponents, so every intermediate —
//     distances, d², h², their ratios — is the scaled image of the
//     original bit for bit, in float64 and float32 alike. Scores must
//     match bitwise and the selected h must be exactly 2·h.
//   - flip-y negates Y. IEEE negation is exact, the numerator flips
//     sign term by term, and the squared residual is unchanged bit for
//     bit. Scores must match bitwise.
//
// The other two perturb rounding:
//
//   - shift-x translates X by a constant; |X_i − X_l| is mathematically
//     unchanged but re-rounds, so scores move by re-association noise.
//   - permute reorders the observations; the outer sum over i and the
//     non-stable per-row sorts accumulate in a different order.
//
// For those, the class CV tolerance applies, and an arg-min flip is
// accepted only between grid points whose scores are within that same
// tolerance (the selector's own score vector is the witness).
//
// Continuum selectors only get flip-y: their search trajectory is not
// scale-exact (Brent carries an absolute epsilon) and a translation can
// legitimately tip the optimiser into a different local minimum — the
// very failure mode the paper criticises.

// Invariant is one metamorphic transform plus its acceptance rule.
type Invariant struct {
	// Name identifies the transform in reports.
	Name string
	// Exact requires bitwise-equal CV (and scores, when present).
	Exact bool
	// Transform maps (x, y, grid) to the metamorphic image. hScale is
	// the factor relating selected bandwidths (1 except for scaling).
	Transform func(x, y []float64, g bandwidth.Grid, rng *rand.Rand) (tx, ty []float64, tg bandwidth.Grid, hScale float64)
}

// Invariants returns the metamorphic transform suite.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name: "scale-x-pow2", Exact: true,
			Transform: func(x, y []float64, g bandwidth.Grid, _ *rand.Rand) ([]float64, []float64, bandwidth.Grid, float64) {
				tx := make([]float64, len(x))
				for i, v := range x {
					tx[i] = 2 * v
				}
				th := make([]float64, len(g.H))
				for i, h := range g.H {
					th[i] = 2 * h
				}
				return tx, y, bandwidth.Grid{H: th}, 2
			},
		},
		{
			Name: "flip-y", Exact: true,
			Transform: func(x, y []float64, g bandwidth.Grid, _ *rand.Rand) ([]float64, []float64, bandwidth.Grid, float64) {
				ty := make([]float64, len(y))
				for i, v := range y {
					ty[i] = -v
				}
				return x, ty, g, 1
			},
		},
		{
			Name: "shift-x", Exact: false,
			Transform: func(x, y []float64, g bandwidth.Grid, _ *rand.Rand) ([]float64, []float64, bandwidth.Grid, float64) {
				tx := make([]float64, len(x))
				for i, v := range x {
					tx[i] = v + 0.71875 // 23/32, exactly representable
				}
				return tx, y, g, 1
			},
		},
		{
			Name: "permute", Exact: false,
			Transform: func(x, y []float64, g bandwidth.Grid, rng *rand.Rand) ([]float64, []float64, bandwidth.Grid, float64) {
				perm := rng.Perm(len(x))
				tx := make([]float64, len(x))
				ty := make([]float64, len(y))
				for i, p := range perm {
					tx[i] = x[p]
					ty[i] = y[p]
				}
				return tx, ty, g, 1
			},
		},
	}
}

// InvariantResult is one (selector, invariant, dataset) verdict.
type InvariantResult struct {
	Selector, Invariant, Dataset string
	Status                       Status
	Detail                       string
}

// invariantMaxN caps the sample size for invariance runs: each check
// runs every selector twice, and the functional device simulation makes
// large-n doubles expensive without adding coverage.
const invariantMaxN = 256

// CheckInvariants runs the metamorphic suite for every registered
// selector over the (small) corpus cases and returns one verdict per
// (selector, invariant, dataset).
func CheckInvariants(opt Options) ([]InvariantResult, error) {
	sels, corpus, err := resolve(opt)
	if err != nil {
		return nil, err
	}
	var out []InvariantResult
	for _, d := range corpus {
		if d.Heavy || d.N() > invariantMaxN {
			continue
		}
		g, err := d.Grid()
		if err != nil {
			return nil, fmt.Errorf("conformance: dataset %s has an invalid grid: %w", d.Name, err)
		}
		for _, s := range sels {
			for _, inv := range Invariants() {
				out = append(out, checkOneInvariant(s, inv, d, g))
			}
		}
	}
	return out, nil
}

// checkOneInvariant applies one transform to one dataset and compares
// the selector's two runs.
func checkOneInvariant(s Selector, inv Invariant, d Dataset, g bandwidth.Grid) InvariantResult {
	res := InvariantResult{Selector: s.Name, Invariant: inv.Name, Dataset: d.Name}
	if d.N() < s.MinN || (s.MinK > 0 && d.K < s.MinK) || (d.Float64Only && s.Class == Float32) {
		res.Status = Skip
		res.Detail = "outside backend domain"
		return res
	}
	if s.Class == Continuum && inv.Name != "flip-y" {
		res.Status = Skip
		res.Detail = "continuum search trajectory is not invariant under this transform"
		return res
	}
	if s.Kernel == kernel.Uniform && inv.Name == "shift-x" {
		// The uniform weight jumps from 1/2 to 0 at |d| = h, so the
		// ulp of re-rounding a translation introduces moves an exact
		// boundary tie's whole weight across the boundary: the objective
		// is not continuous in X there, and no tolerance applies.
		res.Status = Skip
		res.Detail = "uniform weight is discontinuous at |d| = h"
		return res
	}
	if s.Class == Statistical && inv.Name == "permute" {
		// Bag membership is drawn over observation *indices*, so permuting
		// the rows changes which rows each bag contains — the selection is
		// a different (equally valid) estimate, not a comparable image.
		// The exact transforms do hold bitwise: scale-x-pow2 and flip-y
		// keep the bags identical, commute with every per-bag sweep, and
		// the compensated mean scales exactly by powers of two. shift-x
		// keeps the bags identical too, so the class tolerance applies.
		res.Status = Skip
		res.Detail = "permuting observations changes index-based bag membership"
		return res
	}
	base, err := s.Run(context.Background(), d.X, d.Y, g)
	if err != nil {
		res.Status = Fail
		res.Detail = fmt.Sprintf("base run error: %v", err)
		return res
	}
	// A deterministic per-cell seed keeps the permutation reproducible.
	rng := rand.New(rand.NewSource(int64(len(d.Name)*1000 + len(s.Name))))
	tx, ty, tg, hScale := inv.Transform(d.X, d.Y, g, rng)
	trans, err := s.Run(context.Background(), tx, ty, tg)
	if err != nil {
		res.Status = Fail
		res.Detail = fmt.Sprintf("transformed run error: %v", err)
		return res
	}
	if err := compareInvariant(s, inv, d, base, trans, hScale); err != nil {
		res.Status = Fail
		res.Detail = err.Error()
		return res
	}
	res.Status = Pass
	return res
}

// compareInvariant checks the transformed result against the base run.
func compareInvariant(s Selector, inv Invariant, d Dataset, base, trans bandwidth.Result, hScale float64) error {
	if s.Class == Continuum {
		// No grid index; the exact transforms demand bitwise-equal h
		// (scaled) and CV.
		if trans.H != hScale*base.H || trans.CV != base.CV {
			return fmt.Errorf("h/CV changed: (%g, %g) vs (%g, %g)", base.H, base.CV, trans.H/hScale, trans.CV)
		}
		return nil
	}
	if inv.Exact {
		if trans.Index != base.Index {
			return fmt.Errorf("arg-min index changed: %d vs %d", base.Index, trans.Index)
		}
		if trans.H != hScale*base.H {
			return fmt.Errorf("selected h %g is not %g×%g", trans.H, hScale, base.H)
		}
		if trans.CV != base.CV {
			return fmt.Errorf("CV changed bitwise: %g vs %g", base.CV, trans.CV)
		}
		for j := range base.Scores {
			if j < len(trans.Scores) && trans.Scores[j] != base.Scores[j] {
				return fmt.Errorf("score[%d] changed bitwise: %g vs %g", j, base.Scores[j], trans.Scores[j])
			}
		}
		return nil
	}
	// Rounding-perturbing transforms: class tolerance, with the
	// selector's own score vector arbitrating arg-min flips at ties.
	// The float64 bound matches the 1e-8 the package bandwidth
	// invariance tests use for the same re-association noise.
	tol := 1e-8
	if s.Class == Float32 {
		tol = float32CVTol(d.N())
	}
	if trans.Index == base.Index {
		if !agreeCV(trans.CV, base.CV, tol) {
			return fmt.Errorf("CV moved by %g (> %g): %g vs %g", mathx.RelDiff(base.CV, trans.CV), tol, base.CV, trans.CV)
		}
		return nil
	}
	if len(base.Scores) > trans.Index && len(trans.Scores) > base.Index {
		a := base.Scores[base.Index]
		b := base.Scores[trans.Index]
		if agreeCV(a, b, tol) && agreeCV(trans.CV, a, tol) {
			return nil // near-tie: the objective cannot separate the two points
		}
	}
	return fmt.Errorf("arg-min index changed %d → %d and is no near-tie", base.Index, trans.Index)
}

package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q          float64
		value      float64
		beyond     int
		unresolved bool
	}{
		{0.5, 50, 50, false},
		{0.9, 90, 10, false},
		{0.95, 95, 5, true},
		{0.99, 99, 1, true},
	} {
		got := percentile(xs, tc.q)
		if got.Value != tc.value || got.Samples != 100 || got.Beyond != tc.beyond || got.Unresolved != tc.unresolved {
			t.Errorf("percentile(1..100, %v) = %+v, want value %v, beyond %d, unresolved %v", tc.q, got, tc.value, tc.beyond, tc.unresolved)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileResolvesWithTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := percentile(xs, 0.95); p.Unresolved || p.Beyond != 10 {
		t.Errorf("p95 of 200 samples = %+v, want resolved with 10 beyond", p)
	}
	if p := percentile(xs[:199], 0.95); !p.Unresolved || p.Beyond != 9 {
		t.Errorf("p95 of 199 samples = %+v, want unresolved with 9 beyond", p)
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	if p := percentile(nil, 0.5); !p.Unresolved || p.Samples != 0 || p.Value != 0 {
		t.Errorf("percentile(nil) = %+v, want unresolved zero", p)
	}
	if p := percentile([]float64{7}, 0.95); p.Value != 7 || p.Samples != 1 || !p.Unresolved {
		t.Errorf("percentile([7], 0.95) = %+v", p)
	}
}

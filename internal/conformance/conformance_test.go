package conformance

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/kernreg"
)

// TestAgreementMatrix is the tentpole check: every registered selector,
// on every corpus dataset, agrees with the naive float64 oracle of its
// family under the class tolerance policy.
func TestAgreementMatrix(t *testing.T) {
	m, err := RunAll(Options{SkipHeavy: testing.Short()})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selectors) < 6 {
		t.Fatalf("registry has %d selectors, want at least 6", len(m.Selectors))
	}
	if len(m.Datasets) < 20 && !testing.Short() {
		t.Fatalf("corpus has %d datasets, want at least 20", len(m.Datasets))
	}
	for _, c := range m.Failures() {
		t.Errorf("%s on %s: %s", c.Selector, c.Dataset, c.Detail)
	}
	if t.Failed() {
		t.Logf("agreement matrix:\n%s", m.String())
	}
}

// TestInvariants runs the metamorphic suite over every backend.
func TestInvariants(t *testing.T) {
	results, err := CheckInvariants(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, r := range results {
		if r.Status == Fail {
			t.Errorf("%s / %s on %s: %s", r.Selector, r.Invariant, r.Dataset, r.Detail)
		}
		if r.Status == Pass {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no invariance checks ran")
	}
}

// TestOraclesAnchorThemselves guards against a registry edit that swaps
// an oracle out from under the engine: each family's oracle must be
// registered and of class Exact.
func TestOraclesAnchorThemselves(t *testing.T) {
	for _, fam := range []Family{LocalConstant, LocalLinear} {
		o := oracleFor(fam)
		if o.Class != Exact {
			t.Errorf("family %v oracle %s has class %v, want Exact", fam, o.Name, o.Class)
		}
	}
}

// TestRegistryNamesUnique keeps the matrix keys unambiguous.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Registry() {
		if seen[s.Name] {
			t.Errorf("duplicate selector name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Run == nil {
			t.Errorf("selector %q has no Run", s.Name)
		}
	}
}

// TestRegistryCoversEveryMethod: every method in kernreg's method table
// has a registry entry of the same name, so a new method cannot ship
// without joining the agreement matrix.
func TestRegistryCoversEveryMethod(t *testing.T) {
	registered := map[string]bool{}
	for _, s := range Registry() {
		registered[s.Name] = true
	}
	for _, m := range kernreg.Methods() {
		if !registered[m.String()] {
			t.Errorf("kernreg method %q has no conformance registry entry", m)
		}
	}
}

// TestCorpusDeterministic: two corpus constructions must be identical —
// the whole harness depends on reproducible datasets.
func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(), Corpus()
	if len(a) != len(b) {
		t.Fatalf("corpus size changed between calls: %d vs %d", len(a), len(b))
	}
	names := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("case %d name differs: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if names[a[i].Name] {
			t.Fatalf("duplicate dataset name %q", a[i].Name)
		}
		names[a[i].Name] = true
		for j := range a[i].X {
			if a[i].X[j] != b[i].X[j] || a[i].Y[j] != b[i].Y[j] {
				t.Fatalf("dataset %s row %d differs between constructions", a[i].Name, j)
			}
		}
		if _, err := a[i].Grid(); err != nil {
			t.Errorf("dataset %s: invalid grid: %v", a[i].Name, err)
		}
	}
}

// TestMatrixRendering exercises the report formatting used by
// cmd/conform.
func TestMatrixRendering(t *testing.T) {
	m, err := RunAll(Options{
		SkipHeavy: true,
		Selectors: []string{"naive", "sorted"},
		Datasets:  []string{"paper-64", "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	for _, want := range []string{"dataset", "naive", "sorted", "paper-64", "n2", "ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("matrix rendering missing %q:\n%s", want, s)
		}
	}
	pass, fail, _ := m.Counts()
	if fail != 0 || pass == 0 {
		t.Errorf("unexpected counts: pass=%d fail=%d", pass, fail)
	}
}

// TestSelectorsRaceFree runs every backend concurrently on the same
// shared dataset. Under `go test -race` this is the short race-mode
// conformance run the issue asks for: adapters must not mutate x, y or
// the grid, and the parallel selectors must not race internally.
func TestSelectorsRaceFree(t *testing.T) {
	var d Dataset
	for _, c := range Corpus() {
		if c.Name == "paper-64" {
			d = c
			break
		}
	}
	if d.Name == "" {
		t.Fatal("paper-64 missing from corpus")
	}
	g, err := d.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, s := range Registry() {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(s Selector) {
				defer wg.Done()
				if _, err := s.Run(context.Background(), d.X, d.Y, g); err != nil {
					t.Errorf("%s: %v", s.Name, err)
				}
			}(s)
		}
	}
	wg.Wait()
}

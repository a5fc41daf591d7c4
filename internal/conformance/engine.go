package conformance

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
)

// Status classifies one (selector, dataset) cell of the agreement
// matrix.
type Status int

const (
	// Pass: the selector ran and agreed with the oracle under its
	// class policy.
	Pass Status = iota
	// Fail: the selector ran but disagreed, or errored unexpectedly.
	Fail
	// Skip: the dataset is outside the backend's domain (n or k too
	// small) — not a defect.
	Skip
)

// String returns the matrix glyph.
func (s Status) String() string {
	switch s {
	case Pass:
		return "ok"
	case Fail:
		return "FAIL"
	case Skip:
		return "-"
	default:
		return "?"
	}
}

// Cell is one entry of the agreement matrix.
type Cell struct {
	Selector, Dataset string
	Status            Status
	// Detail carries the failure description or skip reason.
	Detail string
}

// Matrix is the full selectors × datasets agreement report.
type Matrix struct {
	Selectors []string
	Datasets  []string
	Cells     map[string]Cell // keyed by selector + "/" + dataset
}

// cellKey builds the Cells map key.
func cellKey(selector, dataset string) string { return selector + "/" + dataset }

// Cell returns the cell for (selector, dataset).
func (m Matrix) Cell(selector, dataset string) (Cell, bool) {
	c, ok := m.Cells[cellKey(selector, dataset)]
	return c, ok
}

// AllPass reports whether no cell failed.
func (m Matrix) AllPass() bool {
	for _, c := range m.Cells {
		if c.Status == Fail {
			return false
		}
	}
	return true
}

// Failures returns the failing cells, ordered deterministically.
func (m Matrix) Failures() []Cell {
	var out []Cell
	for _, c := range m.Cells {
		if c.Status == Fail {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Selector != out[j].Selector {
			return out[i].Selector < out[j].Selector
		}
		return out[i].Dataset < out[j].Dataset
	})
	return out
}

// Counts returns (pass, fail, skip) totals.
func (m Matrix) Counts() (pass, fail, skip int) {
	for _, c := range m.Cells {
		switch c.Status {
		case Pass:
			pass++
		case Fail:
			fail++
		case Skip:
			skip++
		}
	}
	return
}

// String renders the matrix as an aligned text table, datasets as rows
// and selectors as columns.
func (m Matrix) String() string {
	var b strings.Builder
	wide := len("dataset")
	for _, d := range m.Datasets {
		if len(d) > wide {
			wide = len(d)
		}
	}
	fmt.Fprintf(&b, "%-*s", wide, "dataset")
	for _, s := range m.Selectors {
		fmt.Fprintf(&b, "  %*s", len(s), s)
	}
	b.WriteByte('\n')
	for _, d := range m.Datasets {
		fmt.Fprintf(&b, "%-*s", wide, d)
		for _, s := range m.Selectors {
			c, ok := m.Cell(s, d)
			glyph := "?"
			if ok {
				glyph = c.Status.String()
			}
			fmt.Fprintf(&b, "  %*s", len(s), glyph)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options configures an engine run.
type Options struct {
	// SkipHeavy drops the Heavy corpus cases (large n), keeping runs
	// short enough for `go test -short` and race mode.
	SkipHeavy bool
	// Selectors restricts the run to the named backends; nil runs all.
	Selectors []string
	// Datasets restricts the run to the named cases; nil runs all.
	Datasets []string
}

// RunAll executes every registered selector on every corpus dataset and
// scores each cell against the family oracle under the tolerance
// policy. The oracle itself is computed once per (dataset, family,
// kernel) with the naive float64 search, and shared with every other
// sweep of the corpus in the process (corpusOracle).
func RunAll(opt Options) (Matrix, error) {
	sels, corpus, err := resolve(opt)
	if err != nil {
		return Matrix{}, err
	}

	m := Matrix{Cells: make(map[string]Cell)}
	for _, s := range sels {
		m.Selectors = append(m.Selectors, s.Name)
	}
	for _, d := range corpus {
		if opt.SkipHeavy && d.Heavy {
			continue
		}
		m.Datasets = append(m.Datasets, d.Name)
		g, err := d.Grid()
		if err != nil {
			return Matrix{}, fmt.Errorf("conformance: dataset %s has an invalid grid: %w", d.Name, err)
		}
		for _, s := range sels {
			oracle, err := corpusOracle(d, g, s.Family, s.Kernel)
			if err != nil {
				return Matrix{}, fmt.Errorf("conformance: %s/%s oracle failed on %s: %w", s.Family, s.Kernel, d.Name, err)
			}
			m.Cells[cellKey(s.Name, d.Name)] = runCell(s, d, g, oracle)
		}
	}
	return m, nil
}

// oracleKey identifies one naive oracle evaluation over the corpus.
type oracleKey struct {
	dataset string
	family  Family
	kernel  kernel.Kind
}

// oracleEntry computes one oracle result at most once.
type oracleEntry struct {
	once sync.Once
	r    bandwidth.Result
	err  error
}

// oracleCache memoises corpusOracle. The naive oracle is Θ(k·n²) per
// dataset — the dominant cost of a corpus sweep on the exact selectors —
// and several batteries (the agreement matrix, the bagged corpus run,
// the matrix rendering) sweep the same corpus. Keying by dataset name is
// sound because the corpus is deterministic (TestCorpusDeterministic).
var oracleCache sync.Map // oracleKey → *oracleEntry

// corpusOracle returns the naive oracle of (family, kernel) on corpus
// dataset d over grid g, computing it once per process. The returned
// Scores are shared: callers must treat them as read-only.
func corpusOracle(d Dataset, g bandwidth.Grid, fam Family, k kernel.Kind) (bandwidth.Result, error) {
	v, _ := oracleCache.LoadOrStore(oracleKey{d.Name, fam, k}, new(oracleEntry))
	e := v.(*oracleEntry)
	e.once.Do(func() { e.r, e.err = runOracle(d, g, fam, k) })
	return e.r, e.err
}

// runOracle evaluates the naive search of a family with one kernel. The
// Epanechnikov oracles are the registry's own anchors (oracleFor).
func runOracle(d Dataset, g bandwidth.Grid, fam Family, k kernel.Kind) (bandwidth.Result, error) {
	ctx := context.Background()
	switch {
	case k == kernel.Epanechnikov:
		return oracleFor(fam).Run(ctx, d.X, d.Y, g)
	case fam == LocalLinear:
		return bandwidth.NaiveGridSearchLocalLinear(ctx, d.X, d.Y, g, k)
	default:
		return bandwidth.NaiveGridSearch(ctx, d.X, d.Y, g, k)
	}
}

// runCell executes one selector on one dataset and scores the result.
func runCell(s Selector, d Dataset, g bandwidth.Grid, oracle bandwidth.Result) Cell {
	cell := Cell{Selector: s.Name, Dataset: d.Name}
	if d.N() < s.MinN {
		cell.Status = Skip
		cell.Detail = fmt.Sprintf("n=%d below backend minimum %d", d.N(), s.MinN)
		return cell
	}
	if s.MinK > 0 && d.K < s.MinK {
		cell.Status = Skip
		cell.Detail = fmt.Sprintf("k=%d below backend minimum %d", d.K, s.MinK)
		return cell
	}
	if d.Float64Only && s.Class == Float32 {
		cell.Status = Skip
		cell.Detail = "sample not representable in float32"
		return cell
	}
	got, err := s.Run(context.Background(), d.X, d.Y, g)
	if err != nil {
		cell.Status = Fail
		cell.Detail = fmt.Sprintf("selector error: %v", err)
		return cell
	}
	if err := checkAgainstOracle(s, got, oracle, d, g); err != nil {
		cell.Status = Fail
		cell.Detail = err.Error()
		return cell
	}
	cell.Status = Pass
	return cell
}

// resolve applies the Options filters, rejecting names that match no
// registered selector or corpus dataset: a typo'd filter silently
// matching nothing would otherwise report a vacuous all-green run.
func resolve(opt Options) ([]Selector, []Dataset, error) {
	sels := Registry()
	if opt.Selectors != nil {
		var err error
		sels, err = filterSelectors(sels, opt.Selectors)
		if err != nil {
			return nil, nil, err
		}
	}
	corpus := Corpus()
	if opt.Datasets != nil {
		var err error
		corpus, err = filterDatasets(corpus, opt.Datasets)
		if err != nil {
			return nil, nil, err
		}
	}
	return sels, corpus, nil
}

func filterSelectors(sels []Selector, names []string) ([]Selector, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []Selector
	for _, s := range sels {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) > 0 {
		known := make([]string, 0, len(sels))
		for _, s := range Registry() {
			known = append(known, s.Name)
		}
		return nil, fmt.Errorf("conformance: unknown selector(s) %s (known: %s)",
			strings.Join(sortedKeys(want), ", "), strings.Join(known, ", "))
	}
	return out, nil
}

func filterDatasets(ds []Dataset, names []string) ([]Dataset, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []Dataset
	for _, d := range ds {
		if want[d.Name] {
			out = append(out, d)
			delete(want, d.Name)
		}
	}
	if len(want) > 0 {
		known := make([]string, 0, len(ds))
		for _, d := range Corpus() {
			known = append(known, d.Name)
		}
		return nil, fmt.Errorf("conformance: unknown dataset(s) %s (known: %s)",
			strings.Join(sortedKeys(want), ", "), strings.Join(known, ", "))
	}
	return out, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

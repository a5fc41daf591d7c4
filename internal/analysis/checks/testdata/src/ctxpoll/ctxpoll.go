//kernvet:path repro/internal/ctxpolltest

// Package ctxpoll exercises the ctxpoll analyzer: exported functions
// and methods whose first parameter is a context.Context, and exported
// ...Context functions, must name, observe, and not discard their
// context. No non-Context sibling is required, and a sibling that takes
// a context is audited like any other entry point.
package ctxpoll

import "context"

// Search is the non-Context sibling of SearchContext.
func Search(xs []float64) int { return len(xs) }

// SearchContext polls its context: clean.
func SearchContext(ctx context.Context, xs []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return len(xs), nil
}

// Pass is the non-Context sibling of PassContext.
func Pass(xs []float64) int { return len(xs) }

// PassContext propagates ctx onward, which counts as observing it.
func PassContext(ctx context.Context, xs []float64) (int, error) {
	return SearchContext(ctx, xs)
}

// Run is the non-Context sibling of RunContext.
func Run(xs []float64) int { return len(xs) }

// RunContext never looks at ctx.
func RunContext(ctx context.Context, xs []float64) int { // want `RunContext never polls its context`
	return len(xs)
}

// Scan is the non-Context sibling of ScanContext.
func Scan() {}

// ScanContext lacks the parameter its name promises.
func ScanContext() {} // want `ScanContext takes no context.Context parameter`

// WalkContext polls and needs no non-Context sibling: clean.
func WalkContext(ctx context.Context) error {
	return ctx.Err()
}

// Visit is the non-Context sibling of VisitContext.
func Visit(xs []float64) {}

// VisitContext discards the caller's context unconditionally.
func VisitContext(ctx context.Context, xs []float64) {
	ctx = context.Background() // want `VisitContext discards the caller's context`
	_ = ctx.Err()
}

// Fill is the non-Context sibling of FillContext.
func Fill() error { return nil }

// FillContext defaults a nil context — the allowed guard form.
func FillContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}

// Nop is the non-Context sibling of NopContext.
func Nop() {}

// NopContext's context parameter is unnamed.
func NopContext(context.Context) {} // want `NopContext's context parameter is unnamed`

// Shadowed takes a context even though a Context variant exists; it
// polls, so it is clean.
func Shadowed(ctx context.Context) error { return ctx.Err() }

// ShadowedContext is fine on its own; its sibling is the problem.
func ShadowedContext(ctx context.Context) error { return ctx.Err() }

// searchContext is unexported and outside the contract.
func searchContext(ctx context.Context) {}

// Quiet is the non-Context sibling of QuietContext.
func Quiet(xs []float64) int { return len(xs) }

//kernvet:ignore ctxpoll -- testdata: function-doc suppression
func QuietContext(ctx context.Context, xs []float64) int {
	return len(xs)
}

// Sweeper pins that methods are audited exactly like package-level
// functions: a never-polling method-receiver ...Context is flagged.
type Sweeper struct{}

// Select is the non-Context sibling of Sweeper.SelectContext.
func (s *Sweeper) Select(xs []float64) float64 { return xs[0] }

// SelectContext never looks at ctx: flagged even as a method.
func (s *Sweeper) SelectContext(ctx context.Context, xs []float64) float64 { // want `SelectContext never polls its context`
	return xs[0]
}

// Other shares method names with Sweeper but is a different type, so
// its Context methods must find their siblings on Other, not Sweeper.
type Other struct{}

// RunContext polls; that Other has no Run method is fine: clean.
func (o *Other) RunContext(ctx context.Context) error {
	return ctx.Err()
}

// Pair is a multi-type-parameter generic receiver; its methods used to
// key to an empty receiver name, colliding with every other such type.
type Pair[K comparable, V any] struct{}

// Get is the non-Context sibling of Pair.GetContext.
func (p *Pair[K, V]) Get() {}

// GetContext has its sibling on the same generic type: clean.
func (p *Pair[K, V]) GetContext(ctx context.Context) error { return ctx.Err() }

// Bag has a GetContext but no Get, which needs no sibling.
type Bag[K comparable, V any] struct{}

// GetContext polls: clean.
func (b *Bag[K, V]) GetContext(ctx context.Context) error {
	return ctx.Err()
}

// Select takes a context first without the Context suffix and never
// looks at it: flagged, the suffix is not what puts it in the contract.
func Select(ctx context.Context, xs []float64) float64 { // want `Select never polls its context`
	return xs[0]
}

// Sweep is a context-first method without the suffix that never polls:
// flagged like the function above.
func (b *Bag[K, V]) Sweep(ctx context.Context, xs []float64) float64 { // want `Sweep never polls its context`
	return xs[0]
}

// Drain takes a context first and discards it: flagged.
func Drain(ctx context.Context) error {
	ctx = context.TODO() // want `Drain discards the caller's context with context.TODO`
	return ctx.Err()
}

// Lookup takes a context but not first, and its name promises none: it
// is outside the contract.
func Lookup(key string, ctx context.Context) string { return key }

// sweep is unexported and outside the contract.
func sweep(ctx context.Context) {}

//go:build !race

package serve_test

// raceEnabled gates the allocation assertions: the race runtime drops a
// share of sync.Pool puts at random, so a pooled decode allocates its
// body buffer now and then.
const raceEnabled = false

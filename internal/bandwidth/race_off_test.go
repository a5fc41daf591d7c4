//go:build !race

package bandwidth

// raceEnabled gates the pooled-allocation bounds: under the race
// detector sync.Pool drops items at random, so a warm pool still misses
// and the selection allocates a fresh workspace.
const raceEnabled = false

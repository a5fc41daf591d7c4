//go:build race

package serve_test

// raceEnabled reports that the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true

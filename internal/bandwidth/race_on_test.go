//go:build race

package bandwidth

// raceEnabled reports that the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true

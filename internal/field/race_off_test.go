//go:build !race

package field

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false

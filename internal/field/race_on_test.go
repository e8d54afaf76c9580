//go:build race

package field

// raceEnabled reports that this test binary runs under the race detector,
// which slows the one-shot large-field smoke test past any useful budget.
const raceEnabled = true

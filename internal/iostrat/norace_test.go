//go:build !race

package iostrat

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

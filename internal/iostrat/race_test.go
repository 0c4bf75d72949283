//go:build race

package iostrat

// raceEnabled reports a -race build: the race detector's own
// bookkeeping allocates inside the engine, so heap allocation ceilings
// hold only without it.
const raceEnabled = true

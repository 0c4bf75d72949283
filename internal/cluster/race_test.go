//go:build race

package cluster

// raceEnabled reports a -race build: the race detector allocates on
// its own account, so allocation counts hold only without it.
const raceEnabled = true

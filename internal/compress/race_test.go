//go:build race

package compress

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a share of its Puts at random, so pooled-buffer allocation
// counts hold only without it.
const raceEnabled = true

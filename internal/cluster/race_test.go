//go:build race

package cluster

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what it is handed, so pooled paths allocate and the
// allocation bounds stand down.
const raceEnabled = true

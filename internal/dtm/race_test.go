//go:build race

package dtm

// raceEnabled: under the race detector sync.Pool drops a random share of
// what it is given, so pooled paths allocate more often than in a normal
// build.
const raceEnabled = true

//go:build !race

package dtm

const raceEnabled = false

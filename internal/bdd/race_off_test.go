//go:build !race

package bdd

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false

//go:build !race

package sat

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false

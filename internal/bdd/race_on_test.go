//go:build race

package bdd

// raceEnabled lets the allocation tests keep exercising their
// workloads under `go test -race` without pinning allocation counts,
// which the race runtime perturbs.
const raceEnabled = true

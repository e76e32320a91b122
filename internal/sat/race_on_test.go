//go:build race

package sat

// raceEnabled lets the zero-alloc regression tests keep exercising
// their workloads under `go test -race` without pinning allocation
// counts, which the race runtime perturbs.
const raceEnabled = true

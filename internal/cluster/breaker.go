// Per-replica circuit breaker. A replica that keeps failing hard
// (connection refused/reset, 5xx) stops absorbing attempts: after the
// failure rate over a sliding outcome window crosses the threshold the
// breaker opens and the replica is skipped entirely; after a cooldown
// it goes half-open and admits exactly one probe request, whose
// outcome decides between closing (back in rotation) and re-opening
// (another cooldown). Flow-control responses (429/503 + Retry-After)
// are deliberately not outcomes — a shedding replica is healthy, just
// busy, and is handled by the retry layer's Retry-After honoring
// instead.
package cluster

import (
	"sync"
	"time"
)

type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

type breaker struct {
	mu sync.Mutex
	// Sliding outcome window: a ring buffer of the last len(window)
	// attempt outcomes (true = success).
	window  []bool
	idx     int
	filled  int
	fails   int
	state   breakerState
	openedA time.Time
	probing bool

	threshold  float64       // failure rate that opens the breaker
	minSamples int           // outcomes required before the rate counts
	cooldown   time.Duration // open → half-open delay
	now        func() time.Time
}

func newBreaker(window int, threshold float64, minSamples int, cooldown time.Duration) *breaker {
	return &breaker{
		window:     make([]bool, window),
		threshold:  threshold,
		minSamples: minSamples,
		cooldown:   cooldown,
		now:        time.Now,
	}
}

// Allow reports whether an attempt may be sent to this replica right
// now. In half-open it admits exactly one in-flight probe; callers
// that got true MUST follow up with Record so the probe slot frees.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedA) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record feeds an attempt outcome back. A half-open probe success
// closes the breaker (window reset); a probe failure re-opens it for
// another cooldown. In closed state the sliding failure rate is
// re-evaluated.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if ok {
			b.reset(breakerClosed)
		} else {
			b.reset(breakerOpen)
			b.openedA = b.now()
		}
		return
	}
	if b.state == breakerOpen {
		// A straggler outcome from before the breaker opened; the
		// cooldown clock is already running.
		return
	}
	if b.filled == len(b.window) {
		if !b.window[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = ok
	if !ok {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled >= b.minSamples &&
		float64(b.fails)/float64(b.filled) >= b.threshold {
		b.reset(breakerOpen)
		b.openedA = b.now()
	}
}

// Release returns an Allow'd slot without recording an outcome — the
// attempt ended neutrally (shed with Retry-After, a client-side 4xx, a
// cancelled attempt), which says nothing about the replica's
// health. In half-open it frees the probe slot so a later attempt can
// probe again; in closed/open it is a no-op.
func (b *breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// coolingDown reports whether the breaker is open and its cooldown has
// not run out, so Allow would refuse every attempt. Once the cooldown
// is over Allow admits the half-open probe.
func (b *breaker) coolingDown() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedA) < b.cooldown
}

// reset clears the window and moves to state.
func (b *breaker) reset(state breakerState) {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
	b.probing = false
	b.state = state
}

// State snapshots the current state for health reporting.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

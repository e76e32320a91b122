// Package estg implements the Extended State Transition Graph of the
// paper (§1, §5): a store of abstract control-state information learned
// during ATPG search. Whenever the search encounters a conflict in an
// abstract state transition, or learns that a transition leads to a
// hard-to-reach state, the transition is recorded; subsequent searches
// consult the record to order decisions away from known-bad regions.
//
// The abstract state is the cube of control flip-flop values (hashing
// via bv.Key). Recorded information is used as heuristic guidance —
// decision ordering and value polarity — which is always sound; it also
// caches completed bounded-proof results keyed by (property, depth) so
// re-checks and deepening runs skip work.
//
// The store is read on the engine's decision path (every control
// decision on an abstract state bit may score both polarities), so it
// is read-mostly: lookups take a shared RWMutex read lock and accept
// []byte keys so the engine's pooled key scratch never escapes to the
// heap. Writes (conflict recording on backtracks) take the exclusive
// lock. One store may be shared across concurrent checkers — the
// batch scheduler (core.CheckAll) hands every worker the same store,
// so guidance learned while checking one property steers its siblings'
// decision ordering mid-flight.
//
// Conflict counts age out through bounded decay: Decay advances a
// global epoch, and every read right-shifts a recorded count by the
// number of epochs since it was last touched (capped at maxDecayShift,
// so one stale entry can never underflow into garbage). Recording
// re-bases the entry on its decayed value, so hot states stay hot and
// abandoned regions fade instead of steering searches forever.
package estg

import "sync"

// maxDecayShift bounds how far a stale count can be right-shifted; 31
// epochs already take any uint32 count to zero.
const maxDecayShift = 31

// entry is one decayed counter: the count as of the epoch it was last
// written.
type entry struct {
	count uint32
	epoch uint32
}

// value returns the count decayed to the current epoch.
func (e entry) value(epoch uint32) int {
	shift := epoch - e.epoch
	if shift >= maxDecayShift {
		shift = maxDecayShift
	}
	return int(e.count >> shift)
}

// Store accumulates learned state/transition information. It is safe
// for concurrent use (benchmarks run checkers in parallel, and the
// engine reads scores on its decision path while sibling checkers
// record conflicts).
type Store struct {
	mu sync.RWMutex
	// epoch is the decay generation; reads age entries by the epochs
	// elapsed since they were written.
	epoch uint32
	// conflicts counts dead-end encounters per abstract state key.
	conflicts map[string]entry
	// transitions counts conflicting (from, to) transition pairs.
	transitions map[string]entry
	// provedNoCex caches property+depth combinations exhausted without
	// a counterexample.
	provedNoCex map[string]bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		conflicts:   map[string]entry{},
		transitions: map[string]entry{},
		provedNoCex: map[string]bool{},
	}
}

// bump re-bases an entry on its decayed value and adds one.
func bump(m map[string]entry, key string, epoch uint32) {
	e := m[key]
	m[key] = entry{count: uint32(e.value(epoch)) + 1, epoch: epoch}
}

// RecordConflict notes a dead-end at abstract state key.
func (s *Store) RecordConflict(stateKey string) {
	s.mu.Lock()
	bump(s.conflicts, stateKey, s.epoch)
	s.mu.Unlock()
}

// ConflictScore returns how often the state dead-ended, decayed to the
// current epoch. The key is a byte slice: the engine builds candidate
// state keys in a pooled scratch buffer, and the string(key) map index
// below is recognized by the compiler, so the lookup does not
// allocate.
func (s *Store) ConflictScore(key []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.conflicts[string(key)].value(s.epoch)
}

// RecordConflictTransition notes that the (from → to) abstract
// transition led to a conflict.
func (s *Store) RecordConflictTransition(fromKey, toKey string) {
	s.mu.Lock()
	bump(s.transitions, fromKey+"\x00"+toKey, s.epoch)
	s.mu.Unlock()
}

// TransitionScore returns the decayed conflict count of a transition,
// keyed by the pre-joined byte slice fromKey + "\x00" + toKey,
// allocation-free for engine-pooled scratch.
func (s *Store) TransitionScore(joined []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.transitions[string(joined)].value(s.epoch)
}

// Decay advances the decay epoch: every recorded conflict count is
// halved (as observed by readers) per call. O(1) — aging is applied
// lazily on read/record, bounded at maxDecayShift epochs.
func (s *Store) Decay() {
	s.mu.Lock()
	s.epoch++
	s.mu.Unlock()
}

// RecordNoCex caches that property prop has no counterexample within
// depth frames.
func (s *Store) RecordNoCex(prop string, depth int) {
	s.mu.Lock()
	s.provedNoCex[noCexKey(prop, depth)] = true
	s.mu.Unlock()
}

// KnownNoCex reports whether a no-counterexample result is cached for
// prop at exactly depth frames.
func (s *Store) KnownNoCex(prop string, depth int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.provedNoCex[noCexKey(prop, depth)]
}

func noCexKey(prop string, depth int) string {
	// depth is small; a two-byte suffix keeps keys compact.
	return prop + "\x00" + string(rune(depth))
}

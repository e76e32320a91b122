package estg

import (
	"sync"
	"testing"
)

func TestConflictRecording(t *testing.T) {
	s := NewStore()
	s.RecordConflict("0101")
	s.RecordConflict("0101")
	if got := s.ConflictScore([]byte("0101")); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if got := s.ConflictScore([]byte("1111")); got != 0 {
		t.Errorf("unseen count = %d, want 0", got)
	}
}

func TestTransitions(t *testing.T) {
	s := NewStore()
	s.RecordConflictTransition("00", "01")
	if s.TransitionScore([]byte("00\x0001")) != 1 {
		t.Error("transition not recorded")
	}
	if s.TransitionScore([]byte("01\x0000")) != 0 {
		t.Error("reverse transition should be distinct")
	}
	// Key separator must prevent ambiguity: ("a", "bc") vs ("ab", "c").
	s.RecordConflictTransition("a", "bc")
	if s.TransitionScore([]byte("ab\x00c")) != 0 {
		t.Error("transition keys collide")
	}
}

func TestNoCexCache(t *testing.T) {
	s := NewStore()
	s.RecordNoCex("p9", 5)
	if !s.KnownNoCex("p9", 5) {
		t.Error("cache miss")
	}
	if s.KnownNoCex("p9", 6) || s.KnownNoCex("p8", 5) {
		t.Error("cache over-matches")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.RecordConflict("x")
				s.ConflictScore([]byte("x"))
				s.RecordNoCex("p", j)
				s.KnownNoCex("p", j)
			}
		}()
	}
	wg.Wait()
	if s.ConflictScore([]byte("x")) != 800 {
		t.Errorf("count = %d, want 800", s.ConflictScore([]byte("x")))
	}
}

// TestConcurrentBatchWorkers drives the store the way core.CheckAll's
// worker pool does: several writers record conflicts and transitions
// on distinct and shared abstract states while readers score both
// polarities through the byte-key fast path and decay epochs advance.
// Run under -race in CI; the final counts pin that no recorded
// conflict is lost to a write race.
func TestConcurrentBatchWorkers(t *testing.T) {
	s := NewStore()
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := string(rune('a' + w))
			for j := 0; j < rounds; j++ {
				s.RecordConflict("shared")
				s.RecordConflict(own)
				s.RecordConflictTransition(own, "shared")
				s.ConflictScore([]byte(own))
				s.TransitionScore([]byte(own + "\x00shared"))
				s.KnownNoCex("p"+own, j%4)
			}
		}()
	}
	wg.Wait()
	if got := s.ConflictScore([]byte("shared")); got != workers*rounds {
		t.Errorf("shared conflicts = %d, want %d", got, workers*rounds)
	}
	for w := 0; w < workers; w++ {
		own := string(rune('a' + w))
		if got := s.TransitionScore([]byte(own + "\x00shared")); got != rounds {
			t.Errorf("transition %s->shared = %d, want %d", own, got, rounds)
		}
	}
}

func TestBoundedDecay(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.RecordConflict("s")
	}
	s.RecordConflictTransition("a", "b")
	s.RecordConflictTransition("a", "b")
	if got := s.ConflictScore([]byte("s")); got != 8 {
		t.Fatalf("pre-decay count = %d, want 8", got)
	}
	s.Decay()
	if got := s.ConflictScore([]byte("s")); got != 4 {
		t.Errorf("after one decay: %d, want 4", got)
	}
	if got := s.TransitionScore([]byte("a\x00b")); got != 1 {
		t.Errorf("transition after one decay: %d, want 1", got)
	}
	s.Decay()
	s.Decay()
	if got := s.ConflictScore([]byte("s")); got != 1 {
		t.Errorf("after three decays: %d, want 1", got)
	}
	// Recording re-bases on the decayed value.
	s.RecordConflict("s")
	if got := s.ConflictScore([]byte("s")); got != 2 {
		t.Errorf("re-based count = %d, want 2", got)
	}
	// A long-stale entry bottoms out at zero instead of wrapping.
	for i := 0; i < 100; i++ {
		s.Decay()
	}
	if got := s.ConflictScore([]byte("s")); got != 0 {
		t.Errorf("fully decayed count = %d, want 0", got)
	}
}

func TestByteKeyScores(t *testing.T) {
	s := NewStore()
	s.RecordConflict("0110")
	s.RecordConflictTransition("01", "10")
	if got := s.ConflictScore([]byte("0110")); got != 1 {
		t.Errorf("ConflictScore = %d, want 1", got)
	}
	if got := s.TransitionScore([]byte("01\x0010")); got != 1 {
		t.Errorf("TransitionScore = %d, want 1", got)
	}
	if got := s.TransitionScore([]byte("0\x00110")); got != 0 {
		t.Errorf("TransitionScore with shifted separator = %d, want 0", got)
	}
}

// TestConcurrentReadersWithDecay exercises the read-mostly hot path
// the engine uses (score lookups on the decision path) against
// concurrent recording and epoch decay; run under -race it checks the
// RWMutex discipline of every read-side method.
func TestConcurrentReadersWithDecay(t *testing.T) {
	s := NewStore()
	key := []byte("0101")
	joined := []byte("0101\x001010")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.RecordConflict("0101")
				s.RecordConflictTransition("0101", "1010")
				if j%64 == 0 {
					s.Decay()
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				if s.ConflictScore(key) < 0 {
					t.Error("negative conflict score")
				}
				if s.TransitionScore(joined) < 0 {
					t.Error("negative transition score")
				}
			}
		}()
	}
	wg.Wait()
	if s.ConflictScore(key) == 0 {
		t.Error("conflicts vanished entirely")
	}
}

package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Errorf("b = %d,%v", v, ok)
	}
	// b is now most recent; adding d evicts c.
	c.Add("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Error("c survived eviction after b was touched")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Len != 2 || c.Len() != 2 {
		t.Errorf("len = %d, want 2", st.Len)
	}
}

func TestGetOrAddSingleResident(t *testing.T) {
	c := New[string, *int](4)
	made := 0
	mk := func() *int { made++; v := made; return &v }
	v1, loaded := c.GetOrAdd("k", mk)
	if loaded {
		t.Error("first GetOrAdd reported loaded")
	}
	v2, loaded := c.GetOrAdd("k", mk)
	if !loaded || v1 != v2 {
		t.Errorf("second GetOrAdd loaded=%v same=%v", loaded, v1 == v2)
	}
	if made != 1 {
		t.Errorf("make ran %d times, want 1", made)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d, want 1000", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*i)%24)
				c.GetOrAdd(k, func() int { return i })
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len = %d exceeds cap 16", c.Len())
	}
}

func TestPeekAndKeysDoNotPerturbRecency(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	// Peek "a" must NOT make it recent; adding c evicts it anyway.
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d,%v", v, ok)
	}
	if got := c.Keys(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Keys = %v, want [b a] (MRU first)", got)
	}
	before := c.Stats()
	c.Add("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek made a recent — it survived eviction")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Error("Peek/Keys touched the hit/miss counters")
	}
	if _, ok := c.Peek("zzz"); ok {
		t.Error("Peek invented an entry")
	}
}

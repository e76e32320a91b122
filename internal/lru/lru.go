// Package lru is a small bounded map with least-recently-used
// eviction and hit/miss/eviction counters — the building block that
// turns the serving stack's grow-forever caches (the service's
// content-hash design cache, core's process-wide DesignFor cache) into
// bounded ones. It is deliberately minimal: a mutex, a map and an
// intrusive recency list; no sharding, no TTLs. Callers that need
// singleflight semantics store a once-guarded entry as the value —
// GetOrAdd makes the lookup-or-insert atomic, so at most one entry
// per key is ever resident, and the entry itself serializes its build.
package lru

import "sync"

// Cache is a bounded key-value map with LRU eviction. All methods are
// safe for concurrent use. A capacity <= 0 means unbounded (the cache
// degenerates to a counted map and never evicts).
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*node[K, V]
	// Doubly-linked recency ring: head.next is most recent, head.prev
	// is least recent. head is a sentinel.
	head node[K, V]

	hits      int64
	misses    int64
	evictions int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Cap       int
}

// New returns an empty cache bounded to capacity entries (<= 0 for
// unbounded).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, entries: make(map[K]*node[K, V])}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.next = c.head.next
	n.prev = &c.head
	c.head.next.prev = n
	c.head.next = n
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// GetOrAdd returns the resident value for key (loaded=true, a hit) or
// atomically inserts make()'s result (loaded=false, a miss, possibly
// evicting the least recently used entry). make runs under the cache
// lock and must be cheap — store a once-guarded entry and do the real
// work outside the cache when the build is expensive.
func (c *Cache[K, V]) GetOrAdd(key K, make func() V) (v V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[key]; ok {
		c.hits++
		c.unlink(n)
		c.pushFront(n)
		return n.val, true
	}
	c.misses++
	c.add(key, make())
	return c.head.next.val, false
}

// Peek returns the value for key without touching recency or the
// hit/miss counters — for observers (snapshot flushers, health
// reports) that must not perturb eviction order.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Keys returns the resident keys in recency order, most recently used
// first — the order a warm-restart manifest wants to preserve. Like
// Peek it does not touch recency or counters.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.entries))
	for n := c.head.next; n != &c.head; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

// Add inserts or replaces the value for key, marking it most recently
// used and evicting if the cache is over capacity.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[key]; ok {
		n.val = val
		c.unlink(n)
		c.pushFront(n)
		return
	}
	c.add(key, val)
}

// add inserts a fresh key (caller holds the lock and has checked
// absence), evicting the LRU entry when over capacity.
func (c *Cache[K, V]) add(key K, val V) {
	n := &node[K, V]{key: key, val: val}
	c.entries[key] = n
	c.pushFront(n)
	if c.cap > 0 && len(c.entries) > c.cap {
		lru := c.head.prev
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: len(c.entries), Cap: c.cap}
}

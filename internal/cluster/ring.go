// Consistent-hash ring over the replica set. The router places every
// replica on the ring at vnodes pseudo-random points (hash of
// "url#vnode") and routes a batch by hashing the design's content
// fingerprint: the walk from that point yields a stable, per-design
// ordering of replicas — primary first, failover candidates after — so
// a given design always lands on the same replicas while they are
// alive. That affinity is what keeps each replica's LRU design cache
// hot for its shard of the design space; membership changes (a replica
// dying or draining) only move the designs that hashed to the lost
// arcs, not the whole key space.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

type ringPoint struct {
	hash   uint64
	member int
}

// ring is the static consistent-hash layout over member indices
// 0..n-1. Liveness is not the ring's concern: Walk takes an alive
// predicate so the caller decides, per lookup, which members are
// currently routable.
type ring struct {
	n      int
	points []ringPoint
}

func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing lays out n members with vnodes points each.
func newRing(labels []string, vnodes int) *ring {
	r := &ring{n: len(labels)}
	r.points = make([]ringPoint, 0, len(labels)*vnodes)
	for m, label := range labels {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(fmt.Sprintf("%s#%d", label, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member
	})
	return r
}

// Walk returns the distinct members passing alive, ordered by ring
// position starting at key's hash point. The first element is the
// key's primary; the rest are its failover candidates in preference
// order.
func (r *ring) Walk(key string, alive func(int) bool) []int {
	if r.n == 0 || len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.n)
	var out []int
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		if alive == nil || alive(p.member) {
			out = append(out, p.member)
		}
	}
	return out
}

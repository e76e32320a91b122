// Cone fingerprinting: the content identity of one property's cone of
// influence. A property's verdict — and, on the ATPG path, the whole
// per-property record — depends only on the transitive fanin of its
// monitor and assumption signals (the same cone reduction the
// stateBearing analysis walks), so hashing that subgraph canonically
// gives a key that survives edits elsewhere in the design: comments,
// whitespace, renamed or rewritten unrelated modules. The verdict
// cache (verdictcache.go) keys on it.
//
// The hash must be stable under global renumbering: an edit outside
// the cone shifts every SignalID/GateID after it, and auto-generated
// net names ("n42") embed those IDs, so neither may enter the hash.
// Instead the walk assigns cone-local indices in a deterministic
// breadth-first order seeded by the property's signals; everything
// serialized — gate kinds, widths, constants, slice bounds, DFF
// initial values, wiring — is expressed in those local coordinates.
// Elaboration itself is deterministic (the sorted-elaboration
// invariant, pinned by the determinism suites), so the same source
// yields the same cone hash in every process.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/netlist"
	"repro/internal/property"
)

// PropertyConeHash returns the cone hash of one property: the content
// hash of the cone of influence of its root list (coneRoots), computed
// on first use. It hashes only: the cone entry's slice, and the BMC and
// BDD forms compiled from it, are left unbuilt.
func (d *Design) PropertyConeHash(p property.Property) string {
	e := d.coneOf(p)
	h, _ := e.hash.get(func() (string, error) { return d.coneHash(e.roots), nil })
	return h
}

// coneHash returns the canonical content hash of the cone of influence
// of the given signals: sha256 over a deterministic serialization of
// every gate, constant and state element in their transitive fanin
// (through DFF next-state inputs — sequential cones include the logic
// feeding the state). Two designs whose cones are structurally
// identical hash identically even when the rest of the designs differ.
func (d *Design) coneHash(sigs []netlist.SignalID) string {
	var sb strings.Builder
	// local maps global signal IDs to cone-local indices, assigned in
	// first-reference order; queue holds signals whose drivers are not
	// yet serialized, in assignment order (BFS).
	local := make(map[netlist.SignalID]int)
	queue := make([]netlist.SignalID, 0, 64)
	ref := func(s netlist.SignalID) int {
		if idx, ok := local[s]; ok {
			return idx
		}
		idx := len(local)
		local[s] = idx
		queue = append(queue, s)
		return idx
	}
	for _, s := range sigs {
		fmt.Fprintf(&sb, "root %d\n", ref(s))
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		sig := &d.nl.Signals[s]
		gid := sig.Driver
		if gid == netlist.None {
			// Primary input (or undriven net): a free cone boundary.
			fmt.Fprintf(&sb, "%d w%d pi\n", head, sig.Width)
			continue
		}
		g := &d.nl.Gates[gid]
		fmt.Fprintf(&sb, "%d w%d k%d", head, sig.Width, g.Kind)
		switch g.Kind {
		case netlist.KConst:
			fmt.Fprintf(&sb, " c%s", g.Const.String())
		case netlist.KDff:
			fmt.Fprintf(&sb, " i%s", g.Init.String())
		}
		if g.Hi != 0 || g.Lo != 0 {
			fmt.Fprintf(&sb, " s%d:%d", g.Hi, g.Lo)
		}
		for _, in := range g.In {
			fmt.Fprintf(&sb, " %d", ref(in))
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

package atpg

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/estg"
	"repro/internal/property"
)

// TestStoreInertWithoutControlFFs pins what running the k-induction
// step beside the bounded loop relies on: over a netlist without 1-bit
// flip-flops an engine neither reads nor writes the learned store. A
// search with conflicts gives identical Stats with a nil store, a fresh
// store and a store pre-loaded with conflict records (among them the
// empty key, the abstract state of such a netlist), and no store's
// Mutations count moves.
func TestStoreInertWithoutControlFFs(t *testing.T) {
	cd, err := circuits.Arbiter(8)
	if err != nil {
		t.Fatal(err)
	}
	grant, _ := cd.NL.SignalByName("grant")
	mon := property.Builder{NL: cd.NL}.AtMostOneBus(grant)
	prep, err := NewPrep(cd.NL)
	if err != nil {
		t.Fatal(err)
	}
	if prep.UsesStore() {
		t.Fatal("UsesStore on a netlist without 1-bit flip-flops")
	}
	guide, _, _ := guideNetlist()
	if gp, err := NewPrep(guide); err != nil || !gp.UsesStore() {
		t.Fatalf("UsesStore on a netlist with a 1-bit flip-flop = false (err %v)", err)
	}
	loaded := func() *estg.Store {
		s := estg.NewStore()
		for _, k := range []string{"", "0", "1", "01"} {
			for i := 0; i < 2*estgPruneThreshold; i++ {
				s.RecordConflict(k)
				s.RecordConflictTransition(k, k)
			}
		}
		return s
	}
	// The bounded search at depth 3 and the induction step with k=3,
	// as the Fig. 1 loop builds them.
	for _, tc := range []struct {
		name     string
		frames   int
		freeInit bool
		hyp      int // frames the monitor must hold before the violation
	}{{"bounded", 3, false, 0}, {"induction", 4, true, 3}} {
		run := func(store *estg.Store) Stats {
			e, err := NewWithPrep(prep, tc.frames, ModeProve, Limits{}, store, tc.freeInit, Features{})
			if err != nil {
				t.Fatal(err)
			}
			ok := true
			for f := 0; f < tc.hyp && ok; f++ {
				ok = e.Require(f, mon, bv.FromUint64(1, 1))
			}
			if !ok || !e.Require(tc.frames-1, mon, bv.FromUint64(1, 0)) {
				t.Fatalf("%s: requirements conflict", tc.name)
			}
			if st := e.Solve(); st != StatusUnsat {
				t.Fatalf("%s: status %v, want unsat", tc.name, st)
			}
			return e.Stats()
		}
		want := run(nil)
		if want.Backtracks == 0 {
			t.Fatalf("%s: search had no conflicts; it would not reach the store", tc.name)
		}
		for _, s := range []struct {
			name  string
			store *estg.Store
		}{{"fresh", estg.NewStore()}, {"pre-loaded", loaded()}} {
			before := s.store.Mutations()
			if got := run(s.store); got != want {
				t.Errorf("%s, %s store: stats\n got %+v\nwant %+v (nil store)", tc.name, s.name, got, want)
			}
			if after := s.store.Mutations(); after != before {
				t.Errorf("%s, %s store: Mutations %d -> %d", tc.name, s.name, before, after)
			}
		}
	}
}

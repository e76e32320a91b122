package bdd

import (
	"math/bits"
	"slices"
	"testing"
)

const (
	maxFuzzVars = 6
	maxFuzzOps  = 48
)

// fuzzFn is one value of a fuzz program: a BDD and the truth table it
// must have (bit r is the value under the assignment that gives
// variable v the value of bit v of r).
type fuzzFn struct {
	ref Ref
	tt  uint64
}

// varTable is the truth table of variable v over n variables.
func varTable(n, v int) (tt uint64) {
	for row := 0; row < 1<<n; row++ {
		if row>>v&1 == 1 {
			tt |= 1 << row
		}
	}
	return tt
}

// existsTable quantifies the variables in mask out of tt.
func existsTable(n int, tt uint64, mask int) uint64 {
	for v := 0; v < n; v++ {
		if mask>>v&1 == 1 {
			mv, s := varTable(n, v), 1<<v
			c := (tt&^mv | (tt&mv)>>s) &^ mv
			tt = c | c<<s
		}
	}
	return tt
}

// runProgram runs prog, four bytes per instruction (opcode, two operand
// indices, a parameter), on a new manager over n variables prepared by
// setup. Every result is checked against its truth table, its
// satisfying-assignment count and canonicity (equal tables must give
// equal Refs). It returns the Ref of every result.
func runProgram(t *testing.T, setup func(*Manager), n int, prog []byte) []Ref {
	rows := 1 << n
	all := ^uint64(0) >> (64 - rows)
	counted := []bool{true, true, true, true, true, true}
	m := New(n)
	setup(m)
	vals := []fuzzFn{{False, 0}, {True, all}}
	for v := 0; v < n; v++ {
		vals = append(vals, fuzzFn{m.Var(v), varTable(n, v)})
	}
	canon := map[uint64]Ref{}
	for _, f := range vals {
		canon[f.tt] = f.ref
	}
	var out []Ref
	for ; len(prog) >= 4; prog = prog[4:] {
		a, b, k := vals[int(prog[1])%len(vals)], vals[int(prog[2])%len(vals)], int(prog[3])
		quant := func(v int) bool { return k>>v&1 == 1 }
		var r fuzzFn
		switch prog[0] % 8 {
		case 0:
			r = fuzzFn{m.And(a.ref, b.ref), a.tt & b.tt}
		case 1:
			r = fuzzFn{m.Or(a.ref, b.ref), a.tt | b.tt}
		case 2:
			r = fuzzFn{m.Xor(a.ref, b.ref), a.tt ^ b.tt}
		case 3:
			r = fuzzFn{m.Not(a.ref), ^a.tt & all}
		case 4:
			r = fuzzFn{m.Exists(a.ref, quant), existsTable(n, a.tt, k)}
		case 5:
			r = fuzzFn{m.AndExists(a.ref, b.ref, quant), existsTable(n, a.tt&b.tt, k)}
		case 6:
			// Rename by a shift d that keeps a's support in range.
			d := k%(2*n-1) - (n - 1)
			lo, hi := n, -1
			for v := 0; v < n; v++ {
				if existsTable(n, a.tt, 1<<v) != a.tt {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			if hi >= 0 && (lo+d < 0 || hi+d >= n) {
				continue
			}
			var tt uint64
			for row := 0; row < rows; row++ {
				src := 0
				for v := lo; v <= hi; v++ {
					src |= (row >> (v + d) & 1) << v
				}
				tt |= (a.tt >> src & 1) << row
			}
			r = fuzzFn{m.Rename(a.ref, func(v int) int { return v + d }), tt}
		default:
			// Reload from a snapshot: every Ref stays valid.
			m = NewFromSnapshot(m.Snapshot(), nil)
			setup(m)
			continue
		}
		for row := 0; row < rows; row++ {
			if m.Eval(r.ref, func(v int) bool { return row>>v&1 == 1 }) != (r.tt>>row&1 == 1) {
				t.Fatalf("op %d row %d: BDD %d disagrees with truth table %#x", prog[0]%8, row, r.ref, r.tt)
			}
		}
		if ref, ok := canon[r.tt]; ok && ref != r.ref {
			t.Fatalf("op %d: truth table %#x has two refs, %d and %d", prog[0]%8, r.tt, ref, r.ref)
		}
		canon[r.tt] = r.ref
		if got, want := m.SatCount(r.ref, counted), float64(bits.OnesCount64(r.tt)); got != want {
			t.Fatalf("op %d: SatCount = %v, want %v", prog[0]%8, got, want)
		}
		vals = append(vals, r)
		out = append(out, r.ref)
	}
	return out
}

// FuzzBDDMatchesTruthTables runs random programs of And, Or, Xor, Not,
// Exists, AndExists, Rename and snapshot reloads over at most six
// variables against truth tables, under every computed-table
// configuration. The configurations must also agree Ref for Ref:
// which results the lossy table keeps must never change which nodes
// get created, or in what order.
func FuzzBDDMatchesTruthTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		n := 1 + int(prog[0])%maxFuzzVars
		prog = prog[1:min(len(prog), 1+4*maxFuzzOps)]
		want := runProgram(t, cacheConfigs[0].setup, n, prog)
		for _, c := range cacheConfigs[1:] {
			if got := runProgram(t, c.setup, n, prog); !slices.Equal(got, want) {
				t.Fatalf("%s computed table: refs %v, default %v", c.name, got, want)
			}
		}
	})
}

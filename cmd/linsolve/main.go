// Command linsolve solves systems of linear bit-vector constraints in
// the modular number system Z/2^n and prints all solutions in the
// paper's closed form x = x0 + N·f (§4.1).
//
// The system is read from stdin, one equation per line:
//
//	linsolve -width 4 <<EOF
//	3 -1 0 -2 = 2
//	1 2 -2 0 = 10
//	EOF
//
// Negative coefficients are taken mod 2^width, and the width runs from
// 1 to 64. A count or generator order past 2^62 prints as 2^k. With
// -enumerate N the first N solutions are listed, however big the set.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"repro/internal/linsolve"
	"repro/internal/modarith"
)

func main() {
	var (
		width = flag.Int("width", 8, "bit width n of the modulus 2^n")
		enum  = flag.Int("enumerate", 0, "list up to this many solutions")
	)
	flag.Parse()
	if *width < 1 || *width > 64 {
		fmt.Fprintf(os.Stderr, "linsolve: -width %d is outside 1..64\n", *width)
		os.Exit(2)
	}

	m := modarith.NewMod(*width)
	var rows [][]uint64
	var rhs []uint64
	vars := -1
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "=")
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad equation %q (want: c1 c2 ... = rhs)", line))
		}
		var coeffs []uint64
		for _, f := range strings.Fields(parts[0]) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				fatal(err)
			}
			coeffs = append(coeffs, m.Reduce(uint64(v)))
		}
		r, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			fatal(err)
		}
		if vars < 0 {
			vars = len(coeffs)
		} else if vars != len(coeffs) {
			fatal(fmt.Errorf("inconsistent variable count"))
		}
		rows = append(rows, coeffs)
		rhs = append(rhs, m.Reduce(uint64(r)))
	}
	if vars <= 0 {
		fatal(fmt.Errorf("no equations"))
	}
	sys := linsolve.NewSystem(*width, vars)
	for i, row := range rows {
		if err := sys.AddEquation(row, rhs[i], *width); err != nil {
			fatal(err)
		}
	}
	ss := sys.Solve()
	if !ss.Feasible {
		fmt.Printf("infeasible over Z/2^%d\n", *width)
		os.Exit(1)
	}
	fmt.Printf("solutions over Z/2^%d: %s total\n", *width, power(ss.Count(), ss.CountLog2()))
	fmt.Printf("x0 = %v\n", ss.X0)
	for i, g := range ss.Gens {
		fmt.Printf("gen %d (order %s): %v\n", i, power(ss.GenOrders[i], orderLog2(g, *width)), g)
	}
	if *enum > 0 {
		n := 0
		ss.Enumerate(func(x []uint64) bool {
			fmt.Printf("  %v\n", x)
			n++
			return n < *enum
		})
	}
}

// power formats v = 2^k in decimal, or as "2^k" past 2^62, where
// Count and GenOrders saturate.
func power(v uint64, k int) string {
	if k > 62 {
		return fmt.Sprintf("2^%d", k)
	}
	return strconv.FormatUint(v, 10)
}

// orderLog2 returns log2 of g's order in (Z/2^n)^k: n less the fewest
// trailing zeros of any entry.
func orderLog2(g []uint64, n int) int {
	tz := n
	for _, x := range g {
		if x != 0 {
			tz = min(tz, bits.TrailingZeros64(x))
		}
	}
	return n - tz
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linsolve:", err)
	os.Exit(1)
}

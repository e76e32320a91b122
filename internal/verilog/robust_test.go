package verilog

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics mutates valid sources (truncation, byte
// flips, token deletion) and requires Parse to return errors, never
// panic.
func TestParseNeverPanics(t *testing.T) {
	bases := []string{
		counterSrc,
		`
module m(a, b, y);
  input [7:0] a, b; output [7:0] y;
  wire [7:0] t;
  assign t = a * b + {a[3:0], b[7:4]};
  assign y = (a > b) ? t : ~t;
endmodule
`,
		`
module n(clk, d, q);
  input clk; input [3:0] d; output reg [3:0] q;
  always @(posedge clk) begin
    case (d[1:0])
      2'b00: q <= d;
      default: q <= ~d;
    endcase
  end
endmodule
`,
	}
	r := rand.New(rand.NewSource(123))
	parseSafely := func(src string) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Parse panicked on %q: %v", src, p)
			}
		}()
		_, _ = Parse(src)
	}
	for _, base := range bases {
		// Truncations.
		for i := 0; i < len(base); i += 7 {
			parseSafely(base[:i])
		}
		// Random byte flips.
		for trial := 0; trial < 200; trial++ {
			b := []byte(base)
			for k := 0; k < 1+r.Intn(3); k++ {
				b[r.Intn(len(b))] = byte(32 + r.Intn(95))
			}
			parseSafely(string(b))
		}
		// Random chunk deletions.
		for trial := 0; trial < 100; trial++ {
			start := r.Intn(len(base))
			end := start + r.Intn(len(base)-start)
			parseSafely(base[:start] + base[end:])
		}
	}
}

// TestLexAllNeverPanics feeds random byte soup to the lexer.
func TestLexAllNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(64)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("LexAll panicked on %q: %v", b, p)
				}
			}()
			_, _ = LexAll(string(b))
		}()
	}
}

// TestNestingDepthLimit: every kind of nesting counts toward maxDepth.
// A source nested a little below the limit parses, and one nested to
// the limit is an error.
func TestNestingDepthLimit(t *testing.T) {
	assign := func(lhs, rhs string) string {
		return "module m(c, a, o);\n  input c; input [7:0] a; output o;\n  assign " + lhs + " = " + rhs + ";\nendmodule"
	}
	always := func(stmt string) string {
		return "module m(c, o);\n  input c; output reg o;\n  always @(*) " + stmt + "\nendmodule"
	}
	nest := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	kinds := map[string]func(n int) string{
		"parentheses":   func(n int) string { return assign("o", nest("(", "c", ")", n)) },
		"unary":         func(n int) string { return assign("o", nest("~", "c", "", n)) },
		"ternary":       func(n int) string { return assign("o", nest("c ? c : ", "c", "", n)) },
		"concatenation": func(n int) string { return assign("o", nest("{", "c", "}", n)) },
		"replication":   func(n int) string { return assign("o", nest("{1{", "c", "}}", n)) },
		"select":        func(n int) string { return assign("o", nest("a[", "0", "]", n)) },
		"operator":      func(n int) string { return assign("o", nest("", "c", " ^ c", n)) },
		"target":        func(n int) string { return assign(nest("{", "o", "}", n), "c") },
		"else-if":       func(n int) string { return always(nest("if (c) o = c; else ", "o = c;", "", n)) },
		"block":         func(n int) string { return always(nest("begin ", "o = c;", " end", n)) },
	}
	for name, src := range kinds {
		if _, err := Parse(src(maxDepth - 10)); err != nil {
			t.Errorf("%s nested %d deep: %v", name, maxDepth-10, err)
		}
		if _, err := Parse(src(maxDepth)); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s nested %d deep: error %v, want the nesting limit", name, maxDepth, err)
		}
	}
	// 10^6 parentheses around one identifier, a 2,000,064-byte source,
	// once overflowed the parser's stack, which no recover can catch.
	const n = 1000000
	src := "module m(clk, o);\ninput clk;\noutput o;\nassign o = " +
		strings.Repeat("(", n) + "clk" + strings.Repeat(")", n) + ";\nendmodule"
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Errorf("%d-byte source nested %d deep: error %v, want the nesting limit", len(src), n, err)
	}
}

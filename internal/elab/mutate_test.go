package elab_test

import (
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/elab"
	"repro/internal/verilog"
)

// TestElaborateNeverPanics mutates the tokens of the Table-1 designs'
// sources and of the serving smoke design — deleting, duplicating or
// replacing one to three tokens, a replacement being a token of the
// same kind so that more mutants parse — and requires Elaborate to
// return a netlist or an error, never panic, as TestParseNeverPanics
// requires of the parser.
func TestElaborateNeverPanics(t *testing.T) {
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	smoke, err := os.ReadFile("../../testdata/serve_smoke.v")
	if err != nil {
		t.Fatal(err)
	}
	type source struct{ text, top string }
	sources := []source{{string(smoke), "smoke"}}
	for _, d := range designs {
		sources = append(sources, source{d.Source, d.NL.Name})
	}
	perSource := 500
	if testing.Short() {
		perSource = 200
	}
	r := rand.New(rand.NewSource(1))
	elaborated := 0
	for _, src := range sources {
		var toks []verilog.Token
		for lx := verilog.NewLexer(src.text); ; {
			tok, err := lx.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == verilog.TEOF {
				break
			}
			toks = append(toks, tok)
		}
		for i := 0; i < perSource; i++ {
			m := slices.Clone(toks)
			for k := 1 + r.Intn(3); k > 0; k-- {
				j, l := r.Intn(len(m)), r.Intn(len(toks))
				switch r.Intn(3) {
				case 0:
					m = slices.Delete(m, j, j+1)
				case 1:
					m = slices.Insert(m, j, m[j])
				default:
					for toks[l].Kind != m[j].Kind {
						l = r.Intn(len(toks))
					}
					m[j] = toks[l]
				}
			}
			words := make([]string, len(m))
			for k, tok := range m {
				words[k] = tok.Text
			}
			mutant := strings.Join(words, " ")
			ast, err := verilog.Parse(mutant)
			if err != nil {
				continue
			}
			elaborated++
			start := time.Now()
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("Elaborate panicked on %q: %v", mutant, p)
					}
				}()
				_, _ = elab.Elaborate(ast, src.top, nil)
			}()
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("Elaborate took %v on %q", d, mutant)
			}
		}
	}
	t.Logf("%d of %d mutants parsed and were elaborated", elaborated, perSource*len(sources))
}

// Command rtlsim is a three-valued cycle simulator for the Verilog
// subset. Stimulus comes from stdin, one cycle per line, as
// space-separated name=value pairs (values in Verilog literal syntax;
// unknown bits allowed: en=1'b1 data=8'hx0). After each cycle the
// named watch signals (-watch a,b,c; default: all outputs, in name
// order) are printed.
//
//	rtlsim -top mod [-watch sig,sig] [-cycles N] design.v < stimulus.txt
//
// Flags come before the design file: flag parsing stops at the first
// argument that is not a flag.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bv"
	"repro/internal/elab"
	"repro/internal/sim"
	"repro/internal/verilog"
)

const usage = "usage: rtlsim -top mod [-watch a,b] [-cycles N] design.v < stimulus"

func main() {
	var (
		top    = flag.String("top", "", "top module name")
		watch  = flag.String("watch", "", "comma-separated signals to print (default: outputs)")
		cycles = flag.Int("cycles", 0, "stop after N cycles (0 = until stdin ends)")
	)
	flag.Parse()
	if flag.NArg() != 1 || *top == "" {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	ast, err := verilog.Parse(string(srcBytes))
	if err != nil {
		fatal(err)
	}
	nl, err := elab.Elaborate(ast, *top, nil)
	if err != nil {
		fatal(err)
	}
	s, err := sim.New(nl)
	if err != nil {
		fatal(err)
	}
	var watches []string
	if *watch != "" {
		watches = strings.Split(*watch, ",")
	} else {
		for name := range nl.POs {
			watches = append(watches, name)
		}
		slices.Sort(watches)
	}
	in := bufio.NewScanner(os.Stdin)
	cycle := 0
	for (*cycles == 0 || cycle < *cycles) && in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, tok := range strings.Fields(line) {
			nv := strings.SplitN(tok, "=", 2)
			if len(nv) != 2 {
				fatal(fmt.Errorf("cycle %d: bad stimulus token %q", cycle, tok))
			}
			val, err := bv.ParseVerilog(nv[1])
			if err != nil {
				fatal(fmt.Errorf("cycle %d: %v", cycle, err))
			}
			sig, ok := nl.SignalByName(nv[0])
			if !ok {
				fatal(fmt.Errorf("cycle %d: no signal %q", cycle, nv[0]))
			}
			if val.Width() != nl.Width(sig) {
				val = val.Zext(nl.Width(sig))
			}
			if err := s.SetInput(sig, val); err != nil {
				fatal(fmt.Errorf("cycle %d: %v", cycle, err))
			}
		}
		s.Eval()
		fmt.Printf("cycle %d:", cycle)
		for _, w := range watches {
			v, err := s.GetName(w)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %s=%v", w, v)
		}
		fmt.Println()
		s.Step()
		cycle++
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtlsim:", err)
	os.Exit(1)
}

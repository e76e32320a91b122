// Command assertcheck is the framework front door: it parses RTL
// Verilog, elaborates it into a word-level netlist, and checks
// assertion properties with the combined word-level ATPG + modular
// arithmetic engine — or with the SAT-BMC and BDD baselines, or a
// concurrent portfolio racing all three.
//
// Usage:
//
//	assertcheck -tables
//	    Regenerate the paper's Table 1 (circuit statistics) and
//	    Table 2 (per-property time and memory) on the built-in
//	    benchmark suite.
//
//	assertcheck -stats design.v -top mod
//	    Print netlist statistics for a design.
//
//	assertcheck design.v -top mod -invariant a,b [-witness w] [-depth N]
//	            [-engine E] [-jobs N] [-json] [-timeout D]
//	    Check that each listed one-bit signal is always 1 (invariant)
//	    or find a trace driving it to 1 (witness). Engines: atpg
//	    (default), bmc, bdd, or portfolio (race all three, first
//	    conclusive verdict wins). Multiple properties are checked as a
//	    batch on a -jobs worker pool. -json emits machine-readable
//	    per-property records in input order — results[i] always belongs
//	    to the i-th requested property (invariants first, then
//	    witnesses, each in flag order), whatever order the batch
//	    workers finish in; the schema is shared byte-for-byte with the
//	    assertd serving front end. -timeout bounds the whole run with a
//	    cancellation context: checks still running when it expires
//	    report verdict "unknown" (exit status 4).
//
// Exit status: 0 when every property is proved (or proved-bounded /
// witness-found), 3 when any property is falsified or a requested
// witness does not exist, 4 when any check ends unknown
// (resource-limited or timed out), 1 on errors, 2 on usage mistakes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
)

// Exit codes (documented in the package comment).
const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitFalsified = 3
	exitUnknown   = 4
)

func main() {
	var (
		tables    = flag.Bool("tables", false, "regenerate Tables 1 and 2 on the built-in suite")
		stats     = flag.Bool("stats", false, "print netlist statistics")
		top       = flag.String("top", "", "top module name")
		invariant = flag.String("invariant", "", "comma-separated 1-bit signals that must always be 1")
		witness   = flag.String("witness", "", "comma-separated 1-bit signals to drive to 1")
		depth     = flag.Int("depth", 16, "maximum number of time frames")
		induction = flag.Bool("induction", true, "attempt a k-induction proof")
		engine    = flag.String("engine", core.EngineATPG, "engine: atpg, bmc, bdd or portfolio")
		jobs      = flag.Int("jobs", 1, "worker-pool size for multi-property batches")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON results (input order)")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget (0 = none); expired checks report unknown")
	)
	flag.Parse()

	if *tables {
		runTables()
		return
	}
	if code := checkUsage(os.Stderr, flag.NArg(), *top, *depth); code != exitOK {
		os.Exit(code)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// One compiled-design artifact serves everything below: stats,
	// every session, every engine.
	d, err := core.CompileVerilog(string(src), *top)
	if err != nil {
		fatal(err)
	}
	nl := d.Netlist()
	if *stats {
		printStats(nl)
		return
	}
	props, err := property.FromNames(nl, splitNames(*invariant), splitNames(*witness))
	if err != nil {
		fatal(err)
	}
	if len(props) == 0 {
		fatal(fmt.Errorf("need -stats, -invariant or -witness"))
	}

	copts := core.Options{MaxDepth: *depth, UseInduction: *induction}
	if *engine == core.EngineBMC || *engine == core.EngineBDD {
		// The session only supplies problem/worker-pool plumbing for the
		// baseline engines; skip the local-FSM extraction they never
		// read.
		copts.DisableLocalFSM = true
	}
	c, err := d.NewSession(copts)
	if err != nil {
		fatal(err)
	}
	eng, err := selectEngine(c, *engine)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		// The cancellation plumbing reaches every engine loop (ATPG
		// decision rounds, CDCL propagation rounds, BDD node
		// allocations), so an expired budget surfaces as prompt
		// per-property unknown verdicts rather than a killed process.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var results []core.Result
	if len(props) == 1 && *jobs <= 1 {
		// Serial single-property path: the memstats-measured Check for
		// the default engine, a direct adapter call otherwise.
		if eng == nil {
			results = []core.Result{c.CheckCtx(ctx, props[0])}
		} else {
			results = []core.Result{eng.Check(ctx, core.Problem{NL: nl, Prop: props[0], MaxDepth: *depth})}
		}
	} else {
		results = c.CheckAll(ctx, props, core.BatchOptions{Jobs: *jobs, Engine: eng})
	}

	if *jsonOut {
		if err := core.EncodeRecords(os.Stdout, results); err != nil {
			fatal(err)
		}
	} else {
		for _, res := range results {
			printResult(os.Stdout, nl, res)
		}
	}
	os.Exit(exitCode(results))
}

// checkUsage returns exitUsage, after saying why on w, when the parsed
// flags name no run: a run needs one design file and a top module, and
// its depth may not be negative (0 selects the default of 16). It
// returns exitOK otherwise.
func checkUsage(w io.Writer, nargs int, top string, depth int) int {
	if depth < 0 {
		fmt.Fprintf(w, "assertcheck: depth %d is negative\n", depth)
	} else if nargs == 1 && top != "" {
		return exitOK
	}
	fmt.Fprintln(w, "usage: assertcheck [-tables] | design.v -top mod [-stats | -invariant sigs | -witness sigs]")
	return exitUsage
}

// splitNames parses a comma-separated signal-name list.
func splitNames(list string) []string {
	var out []string
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// selectEngine maps the -engine flag to an Engine; nil selects the
// session's default memstats-measured ATPG path. The baseline engines
// are bound to the session so they run over the design's compiled
// caches (BMC frame template, BDD model snapshot).
func selectEngine(c *core.Session, name string) (core.Engine, error) {
	switch name {
	case core.EngineATPG:
		return nil, nil
	case core.EngineBMC:
		return c.BMCEngine(bmc.Options{}), nil
	case core.EngineBDD:
		return c.BDDEngine(mc.Options{}), nil
	case core.EnginePortfolio:
		return c.Portfolio(), nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

// exitCode folds per-property verdicts into the process exit status:
// any falsification dominates, then any engine error, then any
// unknown, then success.
func exitCode(results []core.Result) int {
	code := exitOK
	for _, res := range results {
		switch res.Verdict {
		case core.VerdictFalsified, core.VerdictNoWitness:
			return exitFalsified
		case core.VerdictError:
			code = exitError
		case core.VerdictUnknown:
			if code == exitOK {
				code = exitUnknown
			}
		}
	}
	return code
}

// printResult renders one result the same way for every engine:
// verdict, engine attribution, depth, elapsed time and the unified
// effort counters, with the ATPG-specific detail lines following when
// the ATPG engine ran. A trace is printed only when it is a validated
// counterexample or witness; a model that failed replay gets one line
// saying so instead.
func printResult(w io.Writer, nl *netlist.Netlist, res core.Result) {
	m := res.Metrics
	fmt.Fprintf(w, "%s: %v [%s] (depth %d, %d decisions, %d conflicts, %d implications, %d mem units, %v",
		res.Property, res.Verdict, res.Engine, res.Depth,
		m.Decisions, m.Conflicts, m.Implications, m.MemUnits,
		res.Elapsed.Round(100000))
	if res.AllocBytes > 0 {
		fmt.Fprintf(w, ", %.2f MB allocated, %.2f allocs/implication, %.2f allocs/decision",
			float64(res.AllocBytes)/1e6, res.AllocsPerImpl, res.AllocsPerDecision)
	}
	fmt.Fprintln(w, ")")
	if res.Stats.FrontierScans > 0 {
		fmt.Fprintf(w, "  frontier: %d scans, %d gate checks, %d skipped (%.1f%% of a full-scan engine's work avoided)\n",
			res.Stats.FrontierScans, res.Stats.FrontierChecks, res.Stats.FrontierSkips,
			100*float64(res.Stats.FrontierSkips)/float64(res.Stats.FrontierChecks+res.Stats.FrontierSkips))
	}
	if res.Stats.Backtracks > 0 {
		fmt.Fprintf(w, "  conflicts: %d backtracks, %d backjumps skipping %d levels\n",
			res.Stats.Backtracks, res.Stats.Backjumps, res.Stats.LevelsSkipped)
	}
	if res.Stats.BitSkips > 0 || res.Stats.BitChainHops > 0 {
		fmt.Fprintf(w, "  bit-grain: %d chain entries followed, %d skipped (changed bits disjoint from needed bits)\n",
			res.Stats.BitChainHops, res.Stats.BitSkips)
	}
	if res.BDD.Partitions > 0 {
		fmt.Fprintf(w, "  image: %d transition partitions, peak %d live product nodes, quantification depth %d\n",
			res.BDD.Partitions, res.BDD.PeakImageNodes, res.BDD.QuantDepth)
	}
	switch {
	case res.Trace == nil:
	case res.Validated && res.Verdict.Conclusive():
		fmt.Fprint(w, res.Trace.Format(nl))
	default:
		fmt.Fprintln(w, "  the engine's model failed replay on the simulator: not a counterexample")
	}
}

func printStats(nl *netlist.Netlist) {
	st := nl.Stats()
	fmt.Printf("%-14s gates=%d FFs=%d ins=%d outs=%d arith=%d cmp=%d mux=%d\n",
		nl.Name, st.Gates, st.FFs, st.Ins, st.Outs, st.ArithGates, st.Comparators, st.Muxes)
}

// runTables regenerates Table 1 and Table 2.
func runTables() {
	designs, err := circuits.All()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table 1: circuit statistics")
	fmt.Printf("%-14s %7s %7s %6s %5s %6s\n", "ckt name", "#lines", "#gates", "#FFs", "#ins", "#outs")
	for _, d := range designs {
		st := d.NL.Stats()
		fmt.Printf("%-14s %7d %7d %6d %5d %6d\n", d.Name, d.Lines(), st.Gates, st.FFs, st.Ins, st.Outs)
	}
	fmt.Println()
	fmt.Println("Table 2: experimental results (cpu time in seconds, memory in MB allocated)")
	fmt.Printf("%-14s %-5s %-16s %9s %9s\n", "ckt_name", "prop.", "verdict", "cpu time", "memory")
	for _, d := range designs {
		for i, p := range d.Props {
			id := d.PropIDs[i]
			c, err := core.New(d.NL, core.Options{MaxDepth: circuits.TableDepth(id), UseInduction: true})
			if err != nil {
				fatal(err)
			}
			res := c.Check(p)
			fmt.Printf("%-14s %-5s %-16s %9.2f %9.2f\n",
				d.Name, id, res.Verdict.String(), res.Elapsed.Seconds(), float64(res.AllocBytes)/1e6)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "assertcheck:", err)
	os.Exit(exitError)
}

package core

import (
	"context"

	"repro/internal/bmc"
	"repro/internal/mc"
	"repro/internal/property"
)

// Portfolio races several engines on the same problem: all members run
// concurrently, the first *conclusive* verdict (proved / falsified /
// witness-found — see Verdict.Conclusive) cancels the rest, and the
// losers' contexts make them return within their check-interval
// budgets. Verdict selection is deterministic even though the race is
// not: the winner is chosen after every member has returned, by
// verdict strength first (conclusive > bounded > unknown), then by
// replay-validation (a falsification carrying a simulator-validated
// trace beats a traceless one — the BDD engine concludes without
// producing a trace), then fixed member priority (registration
// order). The returned Result is the winner's own — produced by one
// engine running start-to-finish, so its stats are as reproducible as
// that engine alone. Two sound engines cannot disagree on a
// conclusive verdict, so racing never changes *what* is concluded;
// what can vary run-to-run is the attribution — and, when the
// traceless BDD engine concludes so far ahead that cancellation stops
// the trace-producing engines, whether the returned falsification
// carries a trace (Result.Validated reports which case occurred).
type Portfolio struct {
	members []Engine
}

// NewPortfolio builds a portfolio over the given engines; their order
// is the fixed tie-break priority (earlier wins).
func NewPortfolio(engines ...Engine) *Portfolio {
	if len(engines) == 0 {
		panic("core: portfolio needs at least one engine")
	}
	return &Portfolio{members: engines}
}

// Name implements Engine.
func (p *Portfolio) Name() string { return EnginePortfolio }

// verdictStrength ranks verdicts for winner selection: conclusive
// results beat bounded ones beat unknowns beat errors (an engine that
// crashed must not outrank one that merely ran out of budget).
func verdictStrength(v Verdict) int {
	switch {
	case v.Conclusive():
		return 3
	case v == VerdictProvedBounded || v == VerdictNoWitness:
		return 2
	case v == VerdictError:
		return 0
	default:
		return 1
	}
}

// Check implements Engine: race all members, return the winner's
// result with its engine attribution intact.
func (p *Portfolio) Check(ctx context.Context, prob Problem) EngineResult {
	if len(p.members) == 1 {
		return safeCheck(p.members[0], ctx, prob)
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]EngineResult, len(p.members))
	done := make(chan int, len(p.members))
	for i, eng := range p.members {
		go func(i int, eng Engine) {
			// safeCheck converts a member panic into an error record: a
			// panic here would otherwise escape the goroutine and kill
			// the process, and the race must still drain every member.
			results[i] = safeCheck(eng, raceCtx, prob)
			done <- i
		}(i, eng)
	}
	for range p.members {
		i := <-done
		if results[i].Verdict.Conclusive() {
			// First conclusive answer: stop the losers. Keep draining —
			// every member must have returned before results is read.
			cancel()
		}
	}
	win := 0
	better := func(a, b EngineResult) bool {
		sa, sb := verdictStrength(a.Verdict), verdictStrength(b.Verdict)
		if sa != sb {
			return sa > sb
		}
		// Same strength: a validated (trace-carrying) conclusion beats
		// a traceless one, so the ATPG/BMC counterexample wins over the
		// BDD engine's whenever both survived the race.
		return a.Validated && !b.Validated
	}
	for i := 1; i < len(results); i++ {
		if better(results[i], results[win]) {
			win = i
		}
	}
	res := results[win]
	res.Property = prob.Prop.Name
	return res
}

// Portfolio returns the default engine race for this session's design:
// the session's own ATPG path, SAT-BMC and BDD reachability — in that
// fixed priority order. The BMC and BDD members run over the design's compiled caches (frame template, model
// snapshot), so every race after the first pays only per-run setup.
func (c *Session) Portfolio() *Portfolio {
	return NewPortfolio(
		c.ATPGEngine(),
		c.BMCEngine(bmc.Options{}),
		c.BDDEngine(mc.Options{}),
	)
}

// CheckPortfolio races the default portfolio on one property.
func (c *Session) CheckPortfolio(ctx context.Context, p property.Property) Result {
	return c.Portfolio().Check(ctx, Problem{NL: c.nl, Prop: p, MaxDepth: c.opts.MaxDepth})
}

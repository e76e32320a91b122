// Package core is the paper's primary contribution assembled: the
// assertion-checking framework of Fig. 1. An assertion property is
// inverted into a counter-example-generation problem, translated into
// value requirements across time frames, and solved by the combined
// word-level ATPG (internal/atpg) and modular arithmetic constraint
// solver (internal/linsolve). Generated counterexamples are validated
// by replaying them on the three-valued simulator; proofs are bounded
// (iterative time-frame deepening), with optional k-induction steps
// interleaved with the deepening that upgrade a bounded result to a
// full proof.
//
// The package is organized as a two-level Design/Session architecture:
// an immutable, concurrency-safe compiled Design (design.go — the
// netlist plus every static analysis and lazily-built per-engine
// compiled cache) and cheap per-run Sessions over it (session.go).
// Scheduling layers — the engine adapters (engine.go), portfolio
// racing (portfolio.go) and batch checking (batch.go) — are thin
// constructors over Design.NewSession. This file holds the shared
// verdict/result vocabulary.
package core

import (
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Verdict is the outcome of a Check call.
type Verdict uint8

// Check outcomes.
const (
	// VerdictProved: the assertion holds in all reachable states
	// (combinational exhaustion or successful induction).
	VerdictProved Verdict = iota
	// VerdictProvedBounded: no counterexample within the depth bound.
	VerdictProvedBounded
	// VerdictFalsified: a validated counterexample exists.
	VerdictFalsified
	// VerdictWitnessFound: the requested witness trace exists.
	VerdictWitnessFound
	// VerdictNoWitness: no witness within the depth bound.
	VerdictNoWitness
	// VerdictUnknown: resource limits hit before a conclusion.
	VerdictUnknown
	// VerdictError: the engine run failed outright (a recovered panic
	// or an internal error) — the result's Err carries the cause. An
	// error says nothing about the property; it exists so one poisoned
	// run degrades to an attributed record instead of taking down a
	// batch or the process.
	VerdictError
)

var verdictNames = [...]string{
	"proved", "proved-bounded", "falsified", "witness-found", "no-witness", "unknown", "error",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Conclusive reports whether the verdict settles the property.
func (v Verdict) Conclusive() bool {
	return v == VerdictProved || v == VerdictFalsified || v == VerdictWitnessFound
}

// defaultDepth is the frame bound of a session or problem that sets
// none.
const defaultDepth = 16

// Options tunes a session.
type Options struct {
	// MaxDepth bounds the number of time frames explored (default 16).
	MaxDepth int
	// UseInduction proves invariants by k-induction: a pre-check (the
	// violation alone, in one free frame under the local-FSM
	// fixpoints) before any bounded search, then the step at k = d
	// after each depth d without a counterexample. The first check
	// that closes gives Proved; if none does, the result stays
	// ProvedBounded.
	UseInduction bool
	// DisableLocalFSM turns off the §6 local-FSM guidance (extraction
	// of per-register state transition graphs whose reachable sets
	// prune illegal states and strengthen induction). On by default;
	// the flag exists for ablation.
	DisableLocalFSM bool
	// Features forwards engine ablation switches.
	Features atpg.Features
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = defaultDepth
	}
	return o
}

// Result reports the verdict with the paper's Table-2 measurements:
// CPU time and memory, plus search statistics.
type Result struct {
	Property string
	Verdict  Verdict
	// Engine names the engine that produced the verdict ("atpg", "bmc",
	// "bdd", or the portfolio winner's name).
	Engine string
	// Metrics unifies the effort counters across engines; Stats below
	// keeps the full ATPG detail when the ATPG engine ran.
	Metrics EngineMetrics
	// Depth is the length of the counterexample or witness, the k whose
	// induction step closed a proof (1 for the pre-check and for a
	// combinational cone), or the exhausted bound.
	Depth int
	// Trace is the validated counterexample or witness.
	Trace *sim.Trace
	// InitState pins uninitialized registers the trace relies on.
	InitState map[netlist.SignalID]bv.BV
	Stats     atpg.Stats
	// BDD carries the BDD engine's partitioned-image detail when the
	// BDD engine produced the verdict; zero otherwise. Never serialized
	// — JSONRecord bytes are unchanged by its presence.
	BDD     BDDStats
	Elapsed time.Duration
	// AllocBytes is the total heap allocated during the check — the
	// measured analogue of the paper's memory column.
	AllocBytes uint64
	// AllocObjects is the number of heap objects allocated during the
	// check; AllocsPerImpl divides it by the implication count. The
	// word-level implication core is designed to run allocation-free on
	// single-word (≤64-bit) designs, so this ratio is the regression
	// canary for the hot path: near zero when the fast path holds,
	// jumping when an op falls off it.
	AllocObjects  uint64
	AllocsPerImpl float64
	// AllocsPerDecision divides AllocObjects by the decision count: with
	// the pooled decision engine (PR 2) a steady-state decision cycle —
	// frontier scan, control decision, propagation — allocates nothing,
	// so this is the canary for the search layer the way AllocsPerImpl
	// is for the implication core.
	AllocsPerDecision float64
	Validated         bool
	// Err is the failure cause when Verdict is VerdictError (a
	// recovered engine panic, an injected fault); empty otherwise.
	Err string
	// FromCache marks a result replayed from the verdict cache instead
	// of computed: its record fields (including Elapsed) are the
	// original run's, verbatim, and the structured extras (Trace,
	// InitState, Stats) are absent. Never serialized — the wire record
	// of a cached result is byte-identical to the original.
	FromCache bool
}

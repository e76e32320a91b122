// Package mc is a BDD-based symbolic model checker (McMillan, paper
// refs. [9]–[11]): forward reachability over a conjunctively
// partitioned transition relation with early quantification. It exists
// as the baseline whose memory growth §1/§5 contrast with the ATPG
// approach — the node count is the measured analogue of BDD memory,
// and exceeding the node budget returns Unknown (the "memory
// explosion" outcome).
package mc

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bdd"
	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/property"
)

// Verdict is a model-checking outcome.
type Verdict uint8

// Outcomes.
const (
	Proved    Verdict = iota // fixpoint reached, no bad state reachable
	Falsified                // a reachable state violates the monitor
	Unknown                  // node budget or iteration limit exceeded
)

func (v Verdict) String() string {
	switch v {
	case Proved:
		return "proved"
	case Falsified:
		return "falsified"
	default:
		return "unknown"
	}
}

// Options bounds the run.
type Options struct {
	MaxNodes int // BDD node budget (0 = 4M)
}

const (
	// defaultMaxNodes is the node budget of a check or compile that
	// sets none.
	defaultMaxNodes = 4 << 20
	// maxIters bounds the reachability iterations of one check.
	maxIters = 10000
	// partitionNodes is the node budget one transition cluster may
	// reach before a new cluster is started. The transition relation is
	// kept as per-state-variable clusters and the image is a fold of
	// AndExists relational products: each current-state/input variable
	// is quantified out at the last cluster that mentions it, so
	// intermediate products stay small.
	partitionNodes = 2048
)

// Result reports the outcome with the memory proxy.
type Result struct {
	Verdict Verdict
	// Iters is the number of image computations performed; for
	// Falsified it is the depth at which a bad state appeared.
	Iters int
	// PeakNodes is the BDD node count — the memory measure.
	PeakNodes int
	// States is the number of reachable states at the end (satcount).
	States  float64
	Elapsed time.Duration
	// Partitions is the number of conjunctive transition-relation
	// clusters the image fold ran over.
	Partitions int
	// PeakImageNodes is the largest intermediate relational-product
	// size (in BDD nodes) observed across all image steps — the live
	// working-set measure partitioning exists to keep down.
	PeakImageNodes int
	// QuantDepth is the number of points in the image fold at which at
	// least one variable is quantified out (the early-quantification
	// schedule length).
	QuantDepth int
}

// Check runs forward reachability for an invariant property. Witness
// properties are handled by checking reachability of monitor = 1.
func Check(nl *netlist.Netlist, p property.Property, opts Options) Result {
	return CheckCtx(context.Background(), nl, p, opts)
}

// model is the symbolic form of a netlist inside one manager: the
// variable layout, the per-bit signal functions, the conjunctively
// partitioned transition relation and the initial-state set.
type model struct {
	funcs map[netlist.SignalID][]bdd.Ref
	init  bdd.Ref
	// parts is the partitioned transition relation: clusters of
	// next-state constraints (next_i ↔ f_d[i]) grouped in state-bit
	// order under a per-cluster node budget.
	parts []bdd.Ref
	// lastAt[v] is the index of the last cluster whose support
	// contains variable v, or -1 — the early-quantification schedule:
	// a current-state/input variable can be quantified out of the
	// accumulating product right after the lastAt[v] fold step,
	// because no later cluster reads it.
	lastAt []int
	// quantDepth is the number of distinct quantification points the
	// schedule has (fold steps owning at least one variable, plus one
	// for the up-front step when some variable appears in no cluster).
	quantDepth int
	// quantOK[v] reports whether variable v is quantified away by the
	// image (current-state and input variables; next-state variables
	// survive and are renamed). isCur[v] marks current-state variables
	// only — the projection countStates keeps.
	quantOK, isCur []bool
}

// layout is an interleaved variable order: slot i holds state bit i's
// current/next pair, then bit i of every free leaf in leaf order. So
// globally-shared low-order inputs (an address, a per-bit grant) live
// near the top of the order and per-bit leaves sit next to the state
// bit they gate. Without this, a relation like next_i <-> f(state_i,
// shared_input) forces every partial product to carry the full
// cross-bit correlation until the shared input is finally quantified,
// and the fold goes exponential. next = current + 1, which the image's
// rename step relies on.
type layout struct {
	curOf, nextOf []int   // per state bit
	leafOf        [][]int // per leaf, per bit
	nVars         int
}

func interleave(nState int, leafWidths []int) layout {
	l := layout{curOf: make([]int, nState), nextOf: make([]int, nState), leafOf: make([][]int, len(leafWidths))}
	slots := nState
	for k, w := range leafWidths {
		l.leafOf[k] = make([]int, w)
		slots = max(slots, w)
	}
	for i := 0; i < slots; i++ {
		if i < nState {
			l.curOf[i], l.nextOf[i] = l.nVars, l.nVars+1
			l.nVars += 2
		}
		for k, w := range leafWidths {
			if i < w {
				l.leafOf[k][i] = l.nVars
				l.nVars++
			}
		}
	}
	return l
}

// vars returns the BDDs of the given variables.
func vars(m *bdd.Manager, vs []int) []bdd.Ref {
	bits := make([]bdd.Ref, len(vs))
	for i, v := range vs {
		bits[i] = m.Var(v)
	}
	return bits
}

// buildModel constructs the symbolic model of the whole design in a
// new manager under the node budget. Every flip-flop is a state
// variable. The free leaves of the interleaved layout are the primary
// inputs and then the outputs of the x sources (netlist.CanBeX): an
// image quantifies an x source like an input, so each frame chooses it
// afresh.
func buildModel(nl *netlist.Netlist, maxNodes, partBudget int, interrupt func() bool) (*bdd.Manager, model, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, model{}, err
	}
	nState := 0
	for _, ff := range nl.FFs {
		nState += nl.Width(nl.Gates[ff].Out)
	}
	leaves := slices.Clone(nl.PIs)
	for _, gid := range order {
		if g := &nl.Gates[gid]; nl.CanBeX(g) {
			leaves = append(leaves, g.Out)
		}
	}
	widths := make([]int, len(leaves))
	for k, s := range leaves {
		widths[k] = nl.Width(s)
	}
	lay := interleave(nState, widths)
	m := bdd.New(lay.nVars)
	m.MaxNodes, m.Interrupt = maxNodes, interrupt

	// Build per-bit functions of every signal over current-state and
	// leaf variables.
	funcs := map[netlist.SignalID][]bdd.Ref{}
	free := map[netlist.SignalID][]bdd.Ref{}
	init, cur := bdd.True, lay.curOf
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		funcs[g.Out] = vars(m, cur[:nl.Width(g.Out)])
		init = conjoinInit(m, init, g.Init, cur)
		cur = cur[nl.Width(g.Out):]
	}
	for k, s := range leaves {
		if k < len(nl.PIs) {
			funcs[s] = vars(m, lay.leafOf[k])
		} else {
			free[s] = vars(m, lay.leafOf[k])
		}
	}
	blastGates(m, nl, order, funcs, free)

	var d []bdd.Ref
	for _, ff := range nl.FFs {
		d = append(d, funcs[nl.Gates[ff].In[0]]...)
	}
	mo := newModel(m, lay, clusters(m, constraints(m, lay, d), partBudget))
	mo.funcs, mo.init = funcs, init
	return m, mo, nil
}

// blastGates sets funcs[g.Out] for each gate of the topologically
// ordered gates from the functions of its inputs. An x source's free
// bits are the variables free[g.Out].
func blastGates(m *bdd.Manager, nl *netlist.Netlist, gates []netlist.GateID, funcs, free map[netlist.SignalID][]bdd.Ref) {
	for _, gid := range gates {
		g := &nl.Gates[gid]
		in := make([][]bdd.Ref, len(g.In))
		for i, s := range g.In {
			in[i] = funcs[s]
		}
		x := free[g.Out]
		funcs[g.Out] = netlist.Blast[bdd.Ref](m, nl, g, in, func(i int) bdd.Ref { return x[i] })
	}
}

// conjoinInit conjoins r with the known bits of init over the
// current-state variables cur.
func conjoinInit(m *bdd.Manager, r bdd.Ref, init bv.BV, cur []int) bdd.Ref {
	for i := 0; i < init.Width(); i++ {
		switch init.Bit(i) {
		case bv.One:
			r = m.And(r, m.Var(cur[i]))
		case bv.Zero:
			r = m.And(r, m.NVar(cur[i]))
		}
	}
	return r
}

// constraints returns the next-state constraints next_i ↔ d[i] of the
// layout's state bits, whose conjunction is the transition relation.
func constraints(m *bdd.Manager, lay layout, d []bdd.Ref) []bdd.Ref {
	cs := make([]bdd.Ref, len(d))
	for i, f := range d {
		cs[i] = m.Xnor(m.Var(lay.nextOf[i]), f)
	}
	return cs
}

// clusters greedily packs the constraints, in state-bit order, into
// conjunctions under the node budget.
func clusters(m *bdd.Manager, cs []bdd.Ref, partBudget int) []bdd.Ref {
	var parts []bdd.Ref
	cluster := bdd.True
	for _, c := range cs {
		merged := m.And(cluster, c)
		if cluster != bdd.True && m.Size(merged) > partBudget {
			parts = append(parts, cluster)
			cluster = c
		} else {
			cluster = merged
		}
	}
	if cluster != bdd.True {
		parts = append(parts, cluster)
	}
	return parts
}

// newModel wraps a conjunctively partitioned transition relation over
// the layout with its early-quantification schedule. Every
// current-state and leaf variable is quantified by the image;
// next-state variables survive.
func newModel(m *bdd.Manager, lay layout, parts []bdd.Ref) model {
	quantOK := make([]bool, m.NumVars())
	isCur := make([]bool, m.NumVars())
	for _, v := range lay.curOf {
		quantOK[v] = true
		isCur[v] = true
	}
	for _, vs := range lay.leafOf {
		for _, v := range vs {
			quantOK[v] = true
		}
	}
	mo := model{parts: parts, quantOK: quantOK, isCur: isCur}
	// Early-quantification schedule: the last cluster mentioning a
	// variable is where it gets quantified out of the image product.
	// Variables no cluster reads (unconstrained inputs, state bits
	// feeding nothing) quantify up front.
	mo.lastAt = make([]int, m.NumVars())
	for v := range mo.lastAt {
		mo.lastAt[v] = -1
	}
	mark := make([]bool, m.NumVars())
	for i, p := range parts {
		for v := range mark {
			mark[v] = false
		}
		m.Support(p, mark)
		for v, in := range mark {
			if in {
				mo.lastAt[v] = i
			}
		}
	}
	owns := make([]bool, len(parts)+1)
	for v, i := range mo.lastAt {
		if quantOK[v] {
			owns[i+1] = true // index 0 = the up-front step
		}
	}
	for _, o := range owns {
		if o {
			mo.quantDepth++
		}
	}
	return mo
}

// image computes ∃ current,input . T ∧ reached ∧ assume, renamed next
// -> current, by folding the cluster list with AndExists relational
// products: each variable is quantified at the last cluster that
// mentions it, so the intermediate products never carry variables no
// remaining cluster reads. A non-nil peak is raised to the largest
// intermediate product seen.
func (mo *model) image(m *bdd.Manager, reached, assume bdd.Ref, peak *int) bdd.Ref {
	acc := m.And(reached, assume)
	acc = m.Exists(acc, func(v int) bool {
		return mo.quantOK[v] && mo.lastAt[v] < 0
	})
	for i, p := range mo.parts {
		acc = m.AndExists(acc, p, func(v int) bool {
			return mo.quantOK[v] && mo.lastAt[v] == i
		})
		if peak != nil {
			*peak = max(*peak, m.Size(acc))
		}
	}
	return m.Rename(acc, func(v int) int { return v - 1 })
}

// checkReach runs the forward-reachability fixpoint of one property
// over a built model. Shared by the direct path (CheckCtx) and the
// compiled path (Compiled.CheckCtx); both produce identical verdicts,
// iteration counts and node counts because the model is structurally
// identical either way.
func checkReach(ctx context.Context, m *bdd.Manager, mo model, p property.Property, start time.Time) (res Result) {
	assume := bdd.True
	for _, a := range p.Assumes {
		assume = m.And(assume, mo.funcs[a][0])
	}
	mon := mo.funcs[p.Monitor][0]
	bad := m.Not(mon)
	if p.Kind == property.Witness {
		bad = mon
	}
	res.Partitions = len(mo.parts)
	res.QuantDepth = mo.quantDepth

	reached := mo.init
	for iter := 0; iter <= maxIters; iter++ {
		if ctx.Err() != nil {
			res.Verdict = Unknown
			res.Iters = iter
			res.PeakNodes = m.NumNodes()
			res.Elapsed = time.Since(start)
			return
		}
		if m.And(m.And(reached, assume), bad) != bdd.False {
			res.Verdict = Falsified
			res.Iters = iter
			res.PeakNodes = m.NumNodes()
			res.States = countStates(m, reached, mo)
			res.Elapsed = time.Since(start)
			return
		}
		newR := m.Or(reached, mo.image(m, reached, assume, &res.PeakImageNodes))
		if newR == reached {
			res.Verdict = Proved
			res.Iters = iter
			res.PeakNodes = m.NumNodes()
			res.States = countStates(m, reached, mo)
			res.Elapsed = time.Since(start)
			return
		}
		reached = newR
	}
	res.Verdict = Unknown
	res.Iters = maxIters
	res.PeakNodes = m.NumNodes()
	res.Elapsed = time.Since(start)
	return
}

// recoverBudget converts the manager's panic-style resource signals
// into an Unknown verdict; peak is the node count reported on a
// node-limit hit.
func recoverBudget(res *Result, start time.Time, peak int) {
	if r := recover(); r != nil {
		if r == bdd.ErrNodeLimit || r == bdd.ErrInterrupted {
			res.Verdict = Unknown
			if r == bdd.ErrNodeLimit {
				res.PeakNodes = peak
			}
			res.Elapsed = time.Since(start)
			return
		}
		panic(r)
	}
}

// CheckCtx is Check under a cancellation context. Cancellation is
// observed at two grains: between fixpoint iterations, and — through
// the manager's Interrupt hook — every few thousand node requests
// inside a single BDD operation, so even a blowing-up image
// computation returns Unknown promptly.
func CheckCtx(ctx context.Context, nl *netlist.Netlist, p property.Property, opts Options) (res Result) {
	start := time.Now()
	if opts.MaxNodes == 0 {
		opts.MaxNodes = defaultMaxNodes
	}
	defer recoverBudget(&res, start, opts.MaxNodes)

	var interrupt func() bool
	if ctx.Done() != nil { // cancellable: poll inside node requests
		interrupt = func() bool { return ctx.Err() != nil }
	}
	m, mo, err := buildModel(nl, opts.MaxNodes, partitionNodes, interrupt)
	if err != nil {
		res.Verdict = Unknown
		res.Elapsed = time.Since(start)
		return
	}
	return checkReach(ctx, m, mo, p, start)
}

// Compiled is the reusable symbolic form of one design: the node-table
// snapshot of a fully built model (per-signal functions, transition
// relation, initial states) plus the refs into it. It is immutable and
// safe for any number of concurrent CheckCtx calls — each call extends
// the snapshot with a private manager that reads it in place, instead
// of re-deriving the model from the netlist.
type Compiled struct {
	snap *bdd.Snapshot
	mo   model
}

// CompileOptions bounds the one-time model construction.
type CompileOptions struct {
	// MaxNodes is the build-time node budget (0 = 4M). A design whose
	// transition relation blows past it fails to compile.
	MaxNodes int
}

// Compile builds the symbolic model of a design once, for reuse across
// properties and sessions. The construction is bounded by the node
// budget rather than a context: it is meant to run once per design
// (e.g. under the core Design's sync.Once), not per check.
func Compile(nl *netlist.Netlist, opts CompileOptions) (c *Compiled, err error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = defaultMaxNodes
	}
	defer func() {
		if r := recover(); r != nil {
			if r == bdd.ErrNodeLimit {
				c, err = nil, fmt.Errorf("mc: node budget %d exceeded compiling %s", opts.MaxNodes, nl.Name)
				return
			}
			panic(r)
		}
	}()
	m, mo, err := buildModel(nl, opts.MaxNodes, partitionNodes, nil)
	if err != nil {
		return nil, err
	}
	return &Compiled{snap: m.Snapshot(), mo: mo}, nil
}

// CheckCtx checks one property against the compiled model: a fresh
// private manager extends the snapshot, reading it without copying it
// and keeping every node the check creates to itself (so concurrent
// calls never share mutable state), and the reachability fixpoint runs
// under the session's own node budget and cancellation hook. The load
// costs the same few small allocations whatever the model's size, and
// a ctx that is already done makes the check unknown at its first
// poll. Verdicts, iteration counts and node counts are identical to
// the direct CheckCtx — the loaded model is ref-for-ref the same.
func (c *Compiled) CheckCtx(ctx context.Context, p property.Property, opts Options) (res Result) {
	start := time.Now()
	if opts.MaxNodes == 0 {
		opts.MaxNodes = defaultMaxNodes
	}
	defer recoverBudget(&res, start, opts.MaxNodes)
	m := bdd.NewFromSnapshot(c.snap)
	m.MaxNodes = opts.MaxNodes
	if ctx.Done() != nil {
		m.Interrupt = func() bool { return ctx.Err() != nil }
	}
	return checkReach(ctx, m, c.mo, p, start)
}

// countStates projects r onto the current-state variables and counts
// the states over those variables alone: input and next-state
// variables are quantified away and not counted.
func countStates(m *bdd.Manager, r bdd.Ref, mo model) float64 {
	p := m.Exists(r, func(v int) bool { return !mo.isCur[v] })
	return m.SatCount(p, mo.isCur)
}

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
	MaxIters int // reachability iterations (0 = 10000)
	// PartitionNodes is the node budget one transition cluster may
	// reach before a new cluster is started (0 = 2048). The transition
	// relation is kept as per-state-variable clusters and the image is
	// a fold of AndExists relational products: each current-state/input
	// variable is quantified out at the last cluster that mentions it,
	// so intermediate products stay small.
	PartitionNodes int
}

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

// layoutSizes returns the state-bit and input-bit counts of the
// variable layout — the single sizing rule for the managers buildModel
// populates (2 variables per state bit + 1 per input bit).
func layoutSizes(nl *netlist.Netlist) (nState, nIn int) {
	for _, ff := range nl.FFs {
		nState += nl.Width(nl.Gates[ff].Out)
	}
	for _, pi := range nl.PIs {
		nIn += nl.Width(pi)
	}
	return nState, nIn
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

// buildModel constructs the symbolic model of the whole design in m:
// every flip-flop is a state variable and every primary input a free
// leaf of the interleaved layout.
func buildModel(m *bdd.Manager, nl *netlist.Netlist, partBudget int) (model, error) {
	nState := 0
	ffBase := map[netlist.GateID]int{}
	for _, ff := range nl.FFs {
		ffBase[ff] = nState
		nState += nl.Width(nl.Gates[ff].Out)
	}
	piWidths := make([]int, len(nl.PIs))
	for k, pi := range nl.PIs {
		piWidths[k] = nl.Width(pi)
	}
	lay := interleave(nState, piWidths)

	// Build per-bit functions of every signal over current-state and
	// input variables.
	funcs := map[netlist.SignalID][]bdd.Ref{}
	for _, ff := range nl.FFs {
		base := ffBase[ff]
		funcs[nl.Gates[ff].Out] = vars(m, lay.curOf[base:base+nl.Width(nl.Gates[ff].Out)])
	}
	for k, pi := range nl.PIs {
		funcs[pi] = vars(m, lay.leafOf[k])
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return model{}, err
	}
	for _, gid := range order {
		g := &nl.Gates[gid]
		funcs[g.Out] = buildGate(m, nl, g, funcs, nil)
	}

	var d []bdd.Ref
	for _, ff := range nl.FFs {
		d = append(d, funcs[nl.Gates[ff].In[0]]...)
	}
	mo := newModel(m, lay, clusters(m, constraints(m, lay, d), partBudget))
	mo.funcs, mo.init = funcs, bdd.True
	for _, ff := range nl.FFs {
		mo.init = conjoinInit(m, mo.init, nl.Gates[ff].Init, lay.curOf[ffBase[ff]:])
	}
	return mo, nil
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
	if partBudget <= 0 {
		partBudget = 2048
	}
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
func checkReach(ctx context.Context, m *bdd.Manager, mo model, p property.Property, opts Options, start time.Time) (res Result) {
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
	for iter := 0; iter <= opts.MaxIters; iter++ {
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
	res.Iters = opts.MaxIters
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
		opts.MaxNodes = 4 << 20
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 10000
	}
	defer recoverBudget(&res, start, opts.MaxNodes)

	nState, nIn := layoutSizes(nl)
	m := bdd.New(2*nState + nIn)
	m.MaxNodes = opts.MaxNodes
	if ctx.Done() != nil { // cancellable: poll inside node requests
		m.Interrupt = func() bool { return ctx.Err() != nil }
	}
	mo, err := buildModel(m, nl, opts.PartitionNodes)
	if err != nil {
		res.Verdict = Unknown
		res.Elapsed = time.Since(start)
		return
	}
	return checkReach(ctx, m, mo, p, opts, start)
}

// Compiled is the reusable symbolic form of one design: the node-table
// snapshot of a fully built model (per-signal functions, transition
// relation, initial states) plus the refs into it. It is immutable and
// safe for any number of concurrent CheckCtx calls — each call loads
// the snapshot into a private manager (two slice copies) instead of
// re-deriving the model from the netlist.
type Compiled struct {
	nl   *netlist.Netlist
	snap *bdd.Snapshot
	mo   model
}

// CompileOptions bounds the one-time model construction.
type CompileOptions struct {
	// MaxNodes is the build-time node budget (0 = 4M). A design whose
	// transition relation blows past it fails to compile.
	MaxNodes int
	// PartitionNodes is the per-cluster node budget (0 = 2048).
	PartitionNodes int
}

// Compile builds the symbolic model of a design once, for reuse across
// properties and sessions. The construction is bounded by the node
// budget rather than a context: it is meant to run once per design
// (e.g. under the core Design's sync.Once), not per check.
func Compile(nl *netlist.Netlist, opts CompileOptions) (c *Compiled, err error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 4 << 20
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
	nState, nIn := layoutSizes(nl)
	m := bdd.New(2*nState + nIn)
	m.MaxNodes = opts.MaxNodes
	mo, err := buildModel(m, nl, opts.PartitionNodes)
	if err != nil {
		return nil, err
	}
	return &Compiled{nl: nl, snap: m.Snapshot(), mo: mo}, nil
}

// Netlist returns the compiled design.
func (c *Compiled) Netlist() *netlist.Netlist { return c.nl }

// CheckCtx checks one property against the compiled model: the
// snapshot is loaded into a fresh private manager (so concurrent calls
// never share mutable state) and the reachability fixpoint runs under
// the session's own node budget and cancellation hook. Verdicts,
// iteration counts and node counts are identical to the direct
// CheckCtx — the loaded model is ref-for-ref the same.
func (c *Compiled) CheckCtx(ctx context.Context, p property.Property, opts Options) (res Result) {
	start := time.Now()
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 4 << 20
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 10000
	}
	defer recoverBudget(&res, start, opts.MaxNodes)
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	m := bdd.NewFromSnapshot(c.snap, stop)
	if m == nil { // cancelled before or while loading
		res.Verdict = Unknown
		res.Elapsed = time.Since(start)
		return
	}
	m.MaxNodes = opts.MaxNodes
	m.Interrupt = stop
	return checkReach(ctx, m, c.mo, p, opts, start)
}

// countStates projects r onto the current-state variables and counts
// the states over those variables alone: input and next-state
// variables are quantified away and not counted.
func countStates(m *bdd.Manager, r bdd.Ref, mo model) float64 {
	p := m.Exists(r, func(v int) bool { return !mo.isCur[v] })
	return m.SatCount(p, mo.isCur)
}

// buildGate constructs the per-bit BDDs of a combinational gate. The
// two gates whose three-valued output can be x whatever their inputs —
// a constant's x bits, and a mux whose select is past its data list —
// take their value from free(g), one variable per output bit, when
// free is non-nil; otherwise they read 0, as the whole-design model
// always has.
func buildGate(m *bdd.Manager, nl *netlist.Netlist, g *netlist.Gate, funcs map[netlist.SignalID][]bdd.Ref, free func(*netlist.Gate) []bdd.Ref) []bdd.Ref {
	w := nl.Width(g.Out)
	in := make([][]bdd.Ref, len(g.In))
	for i, s := range g.In {
		in[i] = funcs[s]
	}
	out := make([]bdd.Ref, w)
	switch g.Kind {
	case netlist.KConst:
		for i := 0; i < w; i++ {
			switch g.Const.Bit(i) {
			case bv.One:
				out[i] = bdd.True
			case bv.X:
				out[i] = bdd.False
				if free != nil {
					out[i] = free(g)[i]
				}
			default:
				out[i] = bdd.False
			}
		}
	case netlist.KDff:
		return funcs[g.Out] // state variables, set up by the caller
	case netlist.KBuf:
		copy(out, in[0])
	case netlist.KNot:
		for i := range out {
			out[i] = m.Not(in[0][i])
		}
	case netlist.KAnd:
		for i := range out {
			out[i] = m.And(in[0][i], in[1][i])
		}
	case netlist.KOr:
		for i := range out {
			out[i] = m.Or(in[0][i], in[1][i])
		}
	case netlist.KXor:
		for i := range out {
			out[i] = m.Xor(in[0][i], in[1][i])
		}
	case netlist.KNand:
		for i := range out {
			out[i] = m.Not(m.And(in[0][i], in[1][i]))
		}
	case netlist.KNor:
		for i := range out {
			out[i] = m.Not(m.Or(in[0][i], in[1][i]))
		}
	case netlist.KXnor:
		for i := range out {
			out[i] = m.Xnor(in[0][i], in[1][i])
		}
	case netlist.KRedAnd:
		acc := bdd.True
		for _, b := range in[0] {
			acc = m.And(acc, b)
		}
		out[0] = acc
	case netlist.KRedOr:
		acc := bdd.False
		for _, b := range in[0] {
			acc = m.Or(acc, b)
		}
		out[0] = acc
	case netlist.KRedXor:
		acc := bdd.False
		for _, b := range in[0] {
			acc = m.Xor(acc, b)
		}
		out[0] = acc
	case netlist.KAdd:
		carry := bdd.False
		for i := range out {
			out[i] = m.Xor(m.Xor(in[0][i], in[1][i]), carry)
			carry = m.Or(m.And(in[0][i], in[1][i]), m.And(carry, m.Or(in[0][i], in[1][i])))
		}
	case netlist.KSub:
		carry := bdd.True
		for i := range out {
			nb := m.Not(in[1][i])
			out[i] = m.Xor(m.Xor(in[0][i], nb), carry)
			carry = m.Or(m.And(in[0][i], nb), m.And(carry, m.Or(in[0][i], nb)))
		}
	case netlist.KMul:
		acc := make([]bdd.Ref, w)
		for i := range acc {
			acc[i] = bdd.False
		}
		for i := 0; i < w; i++ {
			row := make([]bdd.Ref, w)
			for j := range row {
				if j < i {
					row[j] = bdd.False
				} else {
					row[j] = m.And(in[1][j-i], in[0][i])
				}
			}
			carry := bdd.False
			for j := range acc {
				s := m.Xor(m.Xor(acc[j], row[j]), carry)
				carry = m.Or(m.And(acc[j], row[j]), m.And(carry, m.Or(acc[j], row[j])))
				acc[j] = s
			}
		}
		copy(out, acc)
	case netlist.KShl, netlist.KShr:
		cur := append([]bdd.Ref(nil), in[0]...)
		for level := 0; level < len(in[1]); level++ {
			// Amount bits at level 30 and up shift every bit out.
			shift := w
			if level < 30 {
				shift = min(1<<uint(level), w)
			}
			next := make([]bdd.Ref, w)
			for i := 0; i < w; i++ {
				var shifted bdd.Ref = bdd.False
				if g.Kind == netlist.KShl {
					if i-shift >= 0 {
						shifted = cur[i-shift]
					}
				} else if i+shift < w {
					shifted = cur[i+shift]
				}
				next[i] = m.Ite(in[1][level], shifted, cur[i])
			}
			cur = next
		}
		copy(out, cur)
	case netlist.KEq, netlist.KNe:
		acc := bdd.True
		for i := range in[0] {
			acc = m.And(acc, m.Xnor(in[0][i], in[1][i]))
		}
		if g.Kind == netlist.KNe {
			acc = m.Not(acc)
		}
		out[0] = acc
	case netlist.KLt, netlist.KGt, netlist.KLe, netlist.KGe:
		a, b := in[0], in[1]
		if g.Kind == netlist.KGt || g.Kind == netlist.KLe {
			a, b = b, a
		}
		lt := bdd.False
		for i := 0; i < len(a); i++ {
			lt = m.Or(m.And(m.Not(a[i]), b[i]), m.And(m.Xnor(a[i], b[i]), lt))
		}
		if g.Kind == netlist.KLe || g.Kind == netlist.KGe {
			lt = m.Not(lt)
		}
		out[0] = lt
	case netlist.KMux:
		sel := in[0]
		data := in[1:]
		if len(sel) < 31 && 1<<uint(len(sel)) < len(data) {
			data = data[:1<<uint(len(sel))] // the rest can never be selected
		}
		var past []bdd.Ref
		if free != nil && muxCanPass(len(sel), len(data)) {
			past = free(g)
		}
		for i := 0; i < w; i++ {
			acc, hit := bdd.False, bdd.False
			for k, d := range data {
				cond := bdd.True
				for j := range sel {
					if k>>uint(j)&1 == 1 {
						cond = m.And(cond, sel[j])
					} else {
						cond = m.And(cond, m.Not(sel[j]))
					}
				}
				acc = m.Or(acc, m.And(cond, d[i]))
				if past != nil {
					hit = m.Or(hit, cond)
				}
			}
			if past != nil {
				acc = m.Or(acc, m.And(m.Not(hit), past[i]))
			}
			out[i] = acc
		}
	case netlist.KConcat:
		pos := w
		for _, bits := range in {
			copy(out[pos-len(bits):pos], bits)
			pos -= len(bits)
		}
	case netlist.KSlice:
		for i := g.Lo; i <= g.Hi; i++ {
			out[i-g.Lo] = in[0][i]
		}
	case netlist.KZext:
		for i := 0; i < w; i++ {
			if i < len(in[0]) {
				out[i] = in[0][i]
			} else {
				out[i] = bdd.False
			}
		}
	default:
		for i := range out {
			out[i] = bdd.False
		}
	}
	return out
}

// muxCanPass reports whether a select of selWidth bits can take a value
// past a data list of n entries.
func muxCanPass(selWidth, n int) bool {
	return selWidth >= 31 || 1<<uint(selWidth) > n
}

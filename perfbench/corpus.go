package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/property"
)

// corpusDesign is one compiled design of the batch corpus.
type corpusDesign struct {
	name string // unique tag, e.g. "arbiter24"
	src  *circuits.Design
	d    *core.Design
}

// corpusProp is one property of the corpus with the ATPG verdict this
// commit gives it: the oracle accepts that verdict, or a full proof
// where it is "proved-bounded" (a later engine may strengthen it).
type corpusProp struct {
	key   string // "<design>/<id>"
	cd    *corpusDesign
	prop  property.Property
	depth int
	want  core.Verdict
}

// corpusGroup is the unit of one CheckAll call: the properties of one
// design that share a frame bound, and so one session.
type corpusGroup struct {
	cd    *corpusDesign
	depth int
	props []*corpusProp
}

type corpus struct {
	props  []*corpusProp
	groups []*corpusGroup
}

// expected is the ATPG verdict of every corpus property at the Table-2
// depth with induction on.
var expected = map[string]core.Verdict{
	"addr_decoder/p1":   core.VerdictWitnessFound,
	"addr_decoder/p2":   core.VerdictProved,
	"token_ring48/p3":   core.VerdictProved,
	"token_ring48/p4":   core.VerdictWitnessFound,
	"arbiter16/p5":      core.VerdictProved,
	"arbiter16/p6":      core.VerdictWitnessFound,
	"alarm_clock/p7":    core.VerdictProved,
	"alarm_clock/p8":    core.VerdictWitnessFound,
	"alarm_clock/p9":    core.VerdictProved,
	"industry_0124/p10": core.VerdictProved,
	"industry_02/p11":   core.VerdictProved,
	"industry_03/p12":   core.VerdictProved,
	"industry_04/p13":   core.VerdictProved,
	"industry_05/p14":   core.VerdictProved,
	"arbiter24/p5":      core.VerdictProved,
	"arbiter24/p6":      core.VerdictWitnessFound,
	"token_ring96/p3":   core.VerdictProvedBounded,
	"token_ring96/p4":   core.VerdictWitnessFound,
	"industry_0164/p10": core.VerdictProved,
}

// corpusBuilders lists the corpus designs: the Table-2 suite at its
// default sizes plus three scaled instances.
var corpusBuilders = []struct {
	name  string
	build func() (*circuits.Design, error)
}{
	{"addr_decoder", circuits.AddrDecoder},
	{"token_ring48", func() (*circuits.Design, error) { return circuits.TokenRing(48) }},
	{"arbiter16", func() (*circuits.Design, error) { return circuits.Arbiter(16) }},
	{"alarm_clock", circuits.AlarmClock},
	{"industry_0124", func() (*circuits.Design, error) { return circuits.Industry01(24) }},
	{"industry_02", circuits.Industry02},
	{"industry_03", circuits.Industry03},
	{"industry_04", circuits.Industry04},
	{"industry_05", circuits.Industry05},
	{"arbiter24", func() (*circuits.Design, error) { return circuits.Arbiter(24) }},
	{"token_ring96", func() (*circuits.Design, error) { return circuits.TokenRing(96) }},
	{"industry_0164", func() (*circuits.Design, error) { return circuits.Industry01(64) }},
}

// buildCorpus elaborates every corpus design and compiles it with
// core.NewDesign. Lazy Design caches are left for the caller to warm.
func buildCorpus() (*corpus, error) {
	c := &corpus{}
	groups := map[string]*corpusGroup{}
	for _, b := range corpusBuilders {
		src, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", b.name, err)
		}
		d, err := core.NewDesign(src.NL)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", b.name, err)
		}
		cd := &corpusDesign{name: b.name, src: src, d: d}
		for i, p := range src.Props {
			id := src.PropIDs[i]
			cp := &corpusProp{key: b.name + "/" + id, cd: cd, prop: p, depth: circuits.TableDepth(id)}
			want, ok := expected[cp.key]
			if !ok {
				return nil, fmt.Errorf("corpus: no expected verdict for %s", cp.key)
			}
			cp.want = want
			c.props = append(c.props, cp)
			gk := fmt.Sprintf("%s@%d", b.name, cp.depth)
			g := groups[gk]
			if g == nil {
				g = &corpusGroup{cd: cd, depth: cp.depth}
				groups[gk] = g
				c.groups = append(c.groups, g)
			}
			g.props = append(g.props, cp)
		}
	}
	if len(c.props) != len(expected) {
		return nil, fmt.Errorf("corpus: %d properties, expected table has %d", len(c.props), len(expected))
	}
	return c, nil
}

// shuffled returns the groups in a seeded order, each with its
// properties in a seeded order.
func (c *corpus) shuffled(rng *rand.Rand) []*corpusGroup {
	out := make([]*corpusGroup, len(c.groups))
	for i, j := range rng.Perm(len(c.groups)) {
		g := *c.groups[j]
		g.props = append([]*corpusProp(nil), g.props...)
		rng.Shuffle(len(g.props), func(a, b int) { g.props[a], g.props[b] = g.props[b], g.props[a] })
		out[i] = &g
	}
	return out
}

// verdictOK is the batch oracle: the verdict must equal the expected
// one, except that a full proof may replace an expected bounded proof.
func verdictOK(got, want core.Verdict) bool {
	return got == want || (want == core.VerdictProvedBounded && got == core.VerdictProved)
}

// failedVerdict reports verdicts that count as failed operations.
func failedVerdict(v core.Verdict) bool {
	return v == core.VerdictUnknown || v == core.VerdictError
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package core

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/property"
)

// goldenATPG is one corpus property's ATPG result at its Table-2 depth
// with induction on: the verdict, the depth reached (for a proof, the
// k whose step closed) and the exact search counters records carry.
type goldenATPG struct {
	key      string // "<design>/<id>"
	verdict  Verdict
	depth    int
	impl     int
	dec      int
	bt       int
	bj       int
	fc       int
	arith    int
	bitSkips int
	maxTrail int
}

// goldenCorpus holds the 19 properties of the benchmark corpus: Table 2
// at its default sizes, then the scaled arbiter, token ring and
// pipeline.
var goldenCorpus = []goldenATPG{
	{"addr_decoder/p1", VerdictWitnessFound, 2, 196, 5, 2, 0, 103, 5, 12, 79},
	{"addr_decoder/p2", VerdictProved, 1, 1646, 81, 158, 4, 705, 80, 3147, 89},
	{"token_ring48/p3", VerdictProved, 1, 2872, 4, 100, 0, 38, 2, 145, 26},
	{"token_ring48/p4", VerdictWitnessFound, 6, 1333, 0, 0, 0, 142, 0, 34, 314},
	{"arbiter16/p5", VerdictProved, 1, 1343, 2, 18, 1, 457, 2, 139, 343},
	{"arbiter16/p6", VerdictWitnessFound, 2, 3787, 0, 0, 0, 904, 0, 1352, 1481},
	{"alarm_clock/p7", VerdictProved, 1, 130, 0, 0, 0, 0, 0, 0, 48},
	{"alarm_clock/p8", VerdictWitnessFound, 3, 593, 0, 0, 0, 144, 0, 0, 162},
	{"alarm_clock/p9", VerdictProved, 1, 49, 0, 0, 0, 0, 0, 0, 15},
	{"industry_0124/p10", VerdictProved, 1, 309, 1, 2, 0, 83, 1, 0, 59},
	{"industry_02/p11", VerdictProved, 1, 627, 20, 36, 5, 598, 9, 200, 66},
	{"industry_03/p12", VerdictProved, 1, 598, 20, 36, 5, 576, 9, 200, 58},
	{"industry_04/p13", VerdictProved, 1, 278, 8, 16, 1, 167, 2, 40, 42},
	{"industry_05/p14", VerdictProved, 1, 71, 0, 0, 0, 0, 0, 0, 28},
	{"arbiter24/p5", VerdictProved, 1, 2007, 2, 26, 1, 689, 2, 219, 511},
	{"arbiter24/p6", VerdictWitnessFound, 2, 6435, 0, 0, 0, 1352, 0, 3000, 2601},
	{"token_ring96/p3", VerdictProved, 1, 5818, 10, 205, 0, 99, 8, 224, 29},
	{"token_ring96/p4", VerdictWitnessFound, 6, 1334, 0, 0, 0, 142, 0, 33, 314},
	{"industry_0164/p10", VerdictProved, 1, 549, 1, 2, 0, 123, 1, 0, 59},
}

// goldenDesign is one corpus design with the tag the benchmark corpus
// gives it (the Table-2 size is part of the tag of scaled designs).
type goldenDesign struct {
	tag string
	d   *circuits.Design
}

// goldenDesigns returns the Table-2 suite plus the three scaled
// instances of the benchmark corpus; the scaled ones are left out
// under -short.
func goldenDesigns(t *testing.T) []goldenDesign {
	t.Helper()
	all, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	sized := map[string]string{"token_ring": "token_ring48", "arbiter": "arbiter16", "industry_01": "industry_0124"}
	var out []goldenDesign
	for _, d := range all {
		tag := d.Name
		if s, ok := sized[tag]; ok {
			tag = s
		}
		out = append(out, goldenDesign{tag, d})
	}
	if testing.Short() {
		return out
	}
	for _, s := range []struct {
		tag   string
		build func() (*circuits.Design, error)
	}{
		{"arbiter24", func() (*circuits.Design, error) { return circuits.Arbiter(24) }},
		{"token_ring96", func() (*circuits.Design, error) { return circuits.TokenRing(96) }},
		{"industry_0164", func() (*circuits.Design, error) { return circuits.Industry01(64) }},
	} {
		d, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenDesign{s.tag, d})
	}
	return out
}

func goldenOf(key string, r Result) goldenATPG {
	s := r.Stats
	return goldenATPG{key, r.Verdict, r.Depth, s.Implications, s.Decisions, s.Backtracks,
		s.Backjumps, s.FrontierChecks, s.ArithCalls, s.BitSkips, s.MaxTrail}
}

func goldenEntry(key string) (goldenATPG, bool) {
	for _, g := range goldenCorpus {
		if g.key == key {
			return g, true
		}
	}
	return goldenATPG{}, false
}

// TestGoldenATPGCorpus pins the ATPG engine on the benchmark corpus:
// every property, checked at its Table-2 depth with induction on, must
// reproduce its verdict, depth and search counters exactly — once
// through CheckCtx on a fresh session, and once through CheckAll with
// an 8-worker pool over one session per (design, depth) group, the
// shape the benchmark runs.
func TestGoldenATPGCorpus(t *testing.T) {
	ctx := context.Background()
	seen := 0
	for _, gd := range goldenDesigns(t) {
		d, err := DesignFor(gd.d.NL)
		if err != nil {
			t.Fatal(err)
		}
		groups := map[int][]int{}
		var depths []int
		for i, p := range gd.d.Props {
			key := gd.tag + "/" + gd.d.PropIDs[i]
			depth := circuits.TableDepth(gd.d.PropIDs[i])
			if _, ok := groups[depth]; !ok {
				depths = append(depths, depth)
			}
			groups[depth] = append(groups[depth], i)
			sess, err := d.NewSession(Options{MaxDepth: depth, UseInduction: true})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, key, "CheckCtx", sess.CheckCtx(ctx, p))
			seen++
		}
		for _, depth := range depths {
			sess, err := d.NewSession(Options{MaxDepth: depth, UseInduction: true})
			if err != nil {
				t.Fatal(err)
			}
			idx := groups[depth]
			props := make([]property.Property, len(idx))
			for j, i := range idx {
				props[j] = gd.d.Props[i]
			}
			for j, r := range sess.CheckAll(ctx, props, BatchOptions{Jobs: 8}) {
				checkGolden(t, gd.tag+"/"+gd.d.PropIDs[idx[j]], "CheckAll", r)
			}
		}
	}
	if !testing.Short() && seen != len(goldenCorpus) {
		t.Errorf("checked %d properties, golden table has %d", seen, len(goldenCorpus))
	}
}

// TestGoldenATPGCorpusAtDepth16 checks every corpus property at the
// default depth bound of 16: each must reproduce its Table-2 golden row
// exactly. A witness is found by the same searches at the same depth,
// and every invariant is proved at the first k that closes, before the
// bound matters.
func TestGoldenATPGCorpusAtDepth16(t *testing.T) {
	seen := 0
	for _, gd := range goldenDesigns(t) {
		d, err := DesignFor(gd.d.NL)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range gd.d.Props {
			sess, err := d.NewSession(Options{MaxDepth: 16, UseInduction: true})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, gd.tag+"/"+gd.d.PropIDs[i], "MaxDepth 16", sess.CheckCtx(context.Background(), p))
			seen++
		}
	}
	if !testing.Short() && seen != len(goldenCorpus) {
		t.Errorf("checked %d properties, golden table has %d", seen, len(goldenCorpus))
	}
}

func checkGolden(t *testing.T, key, path string, r Result) {
	t.Helper()
	want, ok := goldenEntry(key)
	if !ok {
		t.Fatalf("%s: no golden entry", key)
	}
	if got := goldenOf(key, r); got != want {
		t.Errorf("%s %s:\n got %+v\nwant %+v", key, path, got, want)
	}
}

// goldenWide pins the width sweep: the token ring's one-hot token and
// the arbiter's grant register at and past 64 bits, where bv moves a
// value from one inline word to two and the proactive domain decision
// stops covering a register's reachable values (it takes at most 64).
var goldenWide = []goldenATPG{
	{"token_ring64/p3", VerdictProved, 1, 3816, 4, 132, 0, 38, 2, 193, 26},
	{"token_ring65/p3", VerdictProved, 1, 3988, 10, 143, 0, 99, 8, 196, 29},
	{"token_ring96/p3", VerdictProved, 1, 5818, 10, 205, 0, 99, 8, 224, 29},
	{"token_ring128/p3", VerdictProved, 1, 7706, 10, 269, 0, 99, 8, 256, 29},
	{"arbiter65/p5", VerdictProved, 1, 3154, 9, 76, 0, 698, 9, 390, 284},
	{"arbiter96/p5", VerdictProved, 1, 5541, 133, 262, 0, 1690, 133, 2248, 501},
}

// TestGoldenATPGWideRegisters checks the width sweep at each
// property's Table-2 depth with induction on. Past 64 values the
// fallback branches over the token's reachable values instead of its
// bits, so the ring takes the same number of decisions at every width
// past 64 instead of ten more per extra bit.
func TestGoldenATPGWideRegisters(t *testing.T) {
	if testing.Short() {
		t.Skip("width sweep: scaled designs")
	}
	build := map[string]func(int) (*circuits.Design, error){
		"token_ring": circuits.TokenRing, "arbiter": circuits.Arbiter,
	}
	for _, want := range goldenWide {
		tag, id, _ := strings.Cut(want.key, "/")
		name := strings.TrimRight(tag, "0123456789")
		n, err := strconv.Atoi(tag[len(name):])
		if err != nil {
			t.Fatal(err)
		}
		d, err := build[name](n)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.Index(d.PropIDs, id)
		sess, err := New(d.NL, Options{MaxDepth: circuits.TableDepth(id), UseInduction: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenOf(want.key, sess.CheckCtx(context.Background(), d.Props[i])); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", want.key, got, want)
		}
	}
	for _, g := range goldenWide[2:4] {
		if g.dec != goldenWide[1].dec {
			t.Errorf("%s takes %d decisions, token_ring65/p3 %d: the ring's search grows with its width", g.key, g.dec, goldenWide[1].dec)
		}
	}
}

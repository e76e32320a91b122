package mc

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuits"
)

// goldenBDD is one Table-2 property's BDD result at the default design
// sizes: the verdict, the effort and memory figures records carry, and
// the reachable-state count.
type goldenBDD struct {
	design, id     string
	verdict        Verdict
	iters          int
	peakNodes      int
	peakImageNodes int
	partitions     int
	quantDepth     int
	states         float64
}

var goldenTable2 = []goldenBDD{
	{"addr_decoder", "p1", Falsified, 1, 33299, 694, 2, 3, 288},
	{"addr_decoder", "p2", Proved, 32, 113506, 4606, 2, 3, 5.51903297536e+11},
	{"token_ring", "p3", Proved, 47, 69654, 95, 1, 2, 48},
	{"token_ring", "p4", Falsified, 5, 66282, 53, 1, 2, 6},
	{"arbiter", "p5", Proved, 2, 64116, 5466, 7, 2, 32},
	{"arbiter", "p6", Falsified, 1, 42815, 363, 7, 2, 17},
	{"alarm_clock", "p7", Proved, 59, 69466, 86, 2, 3, 724},
	{"alarm_clock", "p8", Falsified, 2, 50111, 56, 2, 3, 13},
	{"alarm_clock", "p9", Proved, 59, 69466, 86, 2, 3, 724},
	{"industry_01", "p10", Proved, 5, 991285, 8548, 5, 6, 7.880401239278896e+115},
	{"industry_02", "p11", Proved, 2, 14855, 3, 1, 2, 8},
	{"industry_03", "p12", Proved, 0, 10728, 0, 0, 1, 1},
	{"industry_04", "p13", Proved, 0, 5853, 0, 0, 1, 1},
	{"industry_05", "p14", Proved, 4, 222, 4, 1, 2, 7},
}

// TestGoldenTable2 pins the partitioned BDD engine on the 14 Table-2
// properties: the direct path and the compiled (snapshot-loaded) path
// must both reproduce every figure exactly. The node counts are the
// creation-order fingerprint of the whole computation, so any change
// to how the manager builds, caches or loads nodes that alters which
// nodes get created, or in what order, shows up here. State counts
// are compared to a relative 1e-12.
func TestGoldenTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("Table-2 BDD runs take seconds")
	}
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, d := range designs {
		comp, err := Compile(d.NL, CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for i, p := range d.Props {
			var want *goldenBDD
			for k := range goldenTable2 {
				if goldenTable2[k].design == d.Name && goldenTable2[k].id == d.PropIDs[i] {
					want = &goldenTable2[k]
				}
			}
			if want == nil {
				t.Fatalf("%s/%s: no golden entry", d.Name, d.PropIDs[i])
			}
			seen++
			direct := Check(d.NL, p, Options{})
			compiled := comp.CheckCtx(context.Background(), p, Options{})
			for _, run := range []struct {
				path string
				r    Result
			}{{"direct", direct}, {"compiled", compiled}} {
				r := run.r
				if r.Verdict != want.verdict || r.Iters != want.iters || r.PeakNodes != want.peakNodes ||
					r.PeakImageNodes != want.peakImageNodes || r.Partitions != want.partitions ||
					r.QuantDepth != want.quantDepth {
					t.Errorf("%s/%s %s: got %v iters=%d nodes=%d image=%d parts=%d qdepth=%d, want %v %d/%d/%d/%d/%d",
						d.Name, want.id, run.path, r.Verdict, r.Iters, r.PeakNodes, r.PeakImageNodes,
						r.Partitions, r.QuantDepth, want.verdict, want.iters, want.peakNodes,
						want.peakImageNodes, want.partitions, want.quantDepth)
				}
				if math.Abs(r.States-want.states) > 1e-12*want.states {
					t.Errorf("%s/%s %s: states = %v, want %v", d.Name, want.id, run.path, r.States, want.states)
				}
			}
		}
	}
	if seen != len(goldenTable2) {
		t.Errorf("checked %d properties, golden table has %d", seen, len(goldenTable2))
	}
}

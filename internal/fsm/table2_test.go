package fsm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fsm"
)

// summary renders the machines of one design as
// "register/width/fixpoint size/frames", in extraction order.
func summary(d *circuits.Design, ms []*fsm.Machine) string {
	var parts []string
	for _, m := range ms {
		parts = append(parts, fmt.Sprintf("%s/%d/%d/%d",
			d.NL.Signals[m.Q].Name, m.Width, len(m.Fixpoint()), len(m.ReachAt)))
	}
	return strings.Join(parts, " ")
}

// TestTable2Machines pins the local FSMs extracted from the Table-2
// designs. Extraction stops probing a register as soon as it can no
// longer restrict; this pin shows the machines it keeps are unchanged.
func TestTable2Machines(t *testing.T) {
	want := map[string]string{
		"addr_decoder": "",
		"token_ring":   "token/48/48/49",
		"arbiter":      "",
		"alarm_clock":  "alarm_hour/4/1/2 alarm_min/6/1/2 hour/4/12/13 minute/6/60/61",
		"industry_01":  "state/4/10/7",
		"industry_02":  "",
		"industry_03":  "",
		"industry_04":  "",
		"industry_05":  "state/3/7/6",
	}
	ds, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		ms, err := fsm.Extract(d.NL, fsm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got := summary(d, ms); got != want[d.Name] {
			t.Errorf("%s machines = %q, want %q", d.Name, got, want[d.Name])
		}
	}
}

// TestAddrDecoderExtractionBytes bounds the bytes extraction allocates
// on addr_decoder, whose 8-bit cell registers reach all 256 values from
// the first probed state: probing every reached state of every cell
// would build 65,792 probe engines and allocate about 600 MB.
func TestAddrDecoderExtractionBytes(t *testing.T) {
	d, err := circuits.AddrDecoder()
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := fsm.Extract(d.NL, fsm.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const ceiling = 32 << 20
	if got := m1.TotalAlloc - m0.TotalAlloc; got > ceiling {
		t.Errorf("addr_decoder extraction allocated %d MB, ceiling %d MB", got>>20, ceiling>>20)
	}
}

package topology

import (
	"math"
	"strings"
	"testing"

	"moment/internal/units"
)

func TestClusterSpecRoundTrip(t *testing.T) {
	for _, cs := range []ClusterSpec{
		{Nodes: 4, NICBW: units.Gbps(100)},
		{Nodes: 8, NICsPerNode: 2, NICBW: units.Gbps(100), Leaves: 2, LeafUplinkBW: units.Gbps(400)},
		{Nodes: 3, NICBW: units.Gbps(25), NICAt: "rc1"},
		// %.3f used to write this as 12.346GiB/s.
		{Nodes: 6, NICBW: units.GiBps(12.3456), Leaves: 3, LeafUplinkBW: units.GiBps(23.28306436538696)},
		{Nodes: 1},
	} {
		line := FormatClusterSpec(cs)
		got, err := ParseClusterLine(strings.Fields(line))
		if err != nil {
			t.Fatalf("ParseClusterLine(%q): %v", line, err)
		}
		if want := cs.Defaults(); got != want {
			t.Errorf("round trip %q: got %+v want %+v", line, got, want)
		}
		if again := FormatClusterSpec(got); again != line {
			t.Errorf("FormatClusterSpec is not a fixpoint: %q then %q", line, again)
		}
	}
}

func TestClusterSpecValidate(t *testing.T) {
	bad := []ClusterSpec{
		{Nodes: 0},
		{Nodes: 4}, // multi-node without NIC bandwidth
		{Nodes: 2, NICBW: units.Gbps(100), Leaves: 3},
		{Nodes: 2, NICBW: units.Bandwidth(math.NaN())},
		{Nodes: 2, NICBW: units.Bandwidth(math.Inf(1))},
		{Nodes: 1, NICBW: units.Bandwidth(math.Inf(-1))},
		{Nodes: 1, NICBW: -1},
		{Nodes: 1, NICBW: units.Gbps(1e-320)}, // no GiB/s text parses back to it
		{Nodes: 2, NICBW: units.Gbps(100), LeafUplinkBW: units.Bandwidth(math.NaN())},
		{Nodes: 2, NICBW: units.Gbps(100), LeafUplinkBW: units.Bandwidth(math.Inf(1))},
		{Nodes: 2, NICBW: units.Gbps(100), LeafUplinkBW: -units.Gbps(100)},
	}
	for _, cs := range bad {
		if err := cs.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cs)
		}
	}
	if err := (ClusterSpec{Nodes: 1}).Validate(); err != nil {
		t.Errorf("single node without NIC rejected: %v", err)
	}
	if err := (ClusterSpec{Nodes: 2, NICBW: units.Gbps(100), LeafUplinkBW: 0}).Validate(); err != nil {
		t.Errorf("zero (non-blocking) uplink rejected: %v", err)
	}
}

func TestClusterSpecTopologyHelpers(t *testing.T) {
	cs := ClusterSpec{Nodes: 6, NICBW: units.Gbps(100), Leaves: 2, LeafUplinkBW: units.Gbps(200)}
	// Contiguous blocks: nodes 0-2 on leaf 0, nodes 3-5 on leaf 1.
	for j, want := range []int{0, 0, 0, 1, 1, 1} {
		if got := cs.LeafOf(j); got != want {
			t.Errorf("LeafOf(%d) = %d, want %d", j, got, want)
		}
	}
	// 3 nodes x 100 Gbps into a 200 Gbps uplink = 1.5x oversubscribed.
	if got := cs.Oversubscription(); got < 1.49 || got > 1.51 {
		t.Errorf("Oversubscription = %v, want 1.5", got)
	}
	if !(ClusterSpec{Nodes: 4, NICBW: units.Gbps(100)}).NonBlocking() {
		t.Error("single unbounded leaf should be non-blocking")
	}
	if (ClusterSpec{Nodes: 4, NICBW: units.Gbps(100)}).Oversubscription() != 0 {
		t.Error("non-blocking spec reports nonzero oversubscription")
	}
}

func TestParseClusterFile(t *testing.T) {
	m := MachineB()
	doc := FormatSpec(m) + FormatClusterSpec(ClusterSpec{
		Nodes: 4, NICBW: units.Gbps(100), Leaves: 2, LeafUplinkBW: units.Gbps(150),
	})
	gm, cs, err := ParseClusterFile(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseClusterFile: %v", err)
	}
	if gm.Name != m.Name || gm.NumGPUs != m.NumGPUs || gm.NumSSDs != m.NumSSDs {
		t.Errorf("machine did not round trip: %+v", gm)
	}
	if cs == nil || cs.Nodes != 4 || cs.Defaults().Leaves != 2 {
		t.Errorf("cluster spec did not round trip: %+v", cs)
	}
	// No cluster line -> nil spec, machine still parses.
	gm, cs, err = ParseClusterFile(strings.NewReader(FormatSpec(m)))
	if err != nil || cs != nil || gm == nil {
		t.Errorf("machine-only doc: m=%v cs=%v err=%v", gm, cs, err)
	}
	// Duplicate cluster lines are rejected.
	dup := doc + FormatClusterSpec(ClusterSpec{Nodes: 2, NICBW: units.Gbps(10)})
	if _, _, err := ParseClusterFile(strings.NewReader(dup)); err == nil {
		t.Error("duplicate cluster line accepted")
	}
}

// FuzzParseClusterFile: ParseClusterFile never panics, and the cluster line
// of whatever it accepts formats to text that ParseClusterLine reads back
// as the same spec, defaults filled, and that formats to the same text
// again.
func FuzzParseClusterFile(f *testing.F) {
	machine := FormatSpec(MachineB())
	for _, cs := range []ClusterSpec{
		{Nodes: 4, NICBW: units.Gbps(100)},
		{Nodes: 8, NICsPerNode: 2, NICBW: units.Gbps(100), Leaves: 2, LeafUplinkBW: units.Gbps(400)},
		{Nodes: 3, NICBW: units.Gbps(25), NICAt: "rc1"},
	} {
		f.Add(machine + FormatClusterSpec(cs))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		_, cs, err := ParseClusterFile(strings.NewReader(doc))
		if err != nil || cs == nil {
			return
		}
		line := FormatClusterSpec(*cs)
		back, err := ParseClusterLine(strings.Fields(line))
		if err != nil {
			t.Fatalf("FormatClusterSpec wrote a line ParseClusterLine rejects: %v\n%s", err, line)
		}
		if want := cs.Defaults(); back != want {
			t.Fatalf("parse∘format changed the cluster:\n got %+v\nwant %+v\n%s", back, want, line)
		}
		if again := FormatClusterSpec(back); again != line {
			t.Fatalf("FormatClusterSpec is not a fixpoint:\n%s\nthen\n%s", line, again)
		}
	})
}

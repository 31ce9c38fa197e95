package topology

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"moment/internal/units"
)

func TestMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{MachineA(), MachineB(), MachineC()} {
		if err := m.Validate(); err != nil {
			t.Errorf("machine %s: %v", m.Name, err)
		}
	}
}

func TestMachineAInventory(t *testing.T) {
	m := MachineA()
	if m.NumGPUs != 4 || m.NumSSDs != 8 {
		t.Fatalf("inventory %d GPUs %d SSDs", m.NumGPUs, m.NumSSDs)
	}
	if got := m.TotalGPUSlots(); got != 8 {
		t.Errorf("gpu slots = %d, want 8", got)
	}
	if got := m.TotalBays(); got != 16 {
		t.Errorf("bays = %d, want 16", got)
	}
	// Aggregate SSD bandwidth should be 48 GiB/s (§2.2).
	if got := m.AggregateSSDBW().GiBpsf(); got < 47.9 || got > 48.1 {
		t.Errorf("aggregate SSD BW = %.1f GiB/s, want 48", got)
	}
	if m.DRAMPerSocket != units.GB(384) {
		t.Errorf("dram/socket = %v", m.DRAMPerSocket)
	}
}

func TestMachineBCascade(t *testing.T) {
	m := MachineB()
	d0, err := m.Depth("sw0")
	if err != nil || d0 != 1 {
		t.Errorf("depth(sw0) = %d, %v", d0, err)
	}
	d1, err := m.Depth("sw1")
	if err != nil || d1 != 2 {
		t.Errorf("depth(sw1) = %d, %v (cascaded switch should be depth 2)", d1, err)
	}
	sock, err := m.Socket("sw1")
	if err != nil || sock != "rc0" {
		t.Errorf("socket(sw1) = %q, %v", sock, err)
	}
}

func TestSocketOfRoot(t *testing.T) {
	m := MachineA()
	s, err := m.Socket("rc1")
	if err != nil || s != "rc1" {
		t.Errorf("Socket(rc1) = %q, %v", s, err)
	}
	if _, err := m.Socket("nope"); err == nil {
		t.Error("expected error for unknown point")
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	bad := []func() *Machine{
		func() *Machine { m := MachineA(); m.Points = nil; return m },
		func() *Machine { m := MachineA(); m.Points[1].ID = "rc0"; return m }, // dup
		func() *Machine { m := MachineA(); m.Points[0].Parent = "sw0"; return m },
		func() *Machine { m := MachineA(); m.Points[2].Parent = ""; return m },
		func() *Machine { m := MachineA(); m.Points[2].Parent = "ghost"; return m },
		func() *Machine { m := MachineA(); m.Points[2].UplinkBW = 0; return m },
		func() *Machine { m := MachineA(); m.Points[2].UplinkBW = 1e-320; return m }, // subnormal
		func() *Machine { m := MachineA(); m.QPIBW = 0.5; return m },
		func() *Machine { m := MachineA(); m.NICBW = 1e-320; return m },
		func() *Machine { m := MachineA(); m.NICBW = -1; return m },
		func() *Machine { m := MachineB(); m.GPUMemory = units.GB(-40); return m },
		func() *Machine { m := MachineB(); m.GPUMemory = math.MinInt64; return m }, // a wrapped size
		func() *Machine { m := MachineB(); m.DRAMPerSocket = 0; return m },
		func() *Machine { m := MachineB(); m.DRAMPerSocket = math.MinInt64; return m },
		func() *Machine { m := MachineA(); m.Points[2].Bays = -1; return m },
		func() *Machine { m := MachineA(); m.NumGPUs = 100; return m },
		func() *Machine { m := MachineA(); m.NumSSDs = -1; return m },
		func() *Machine { m := MachineA(); m.NVLinks = []NVLinkPair{{0, 9}}; return m },
		func() *Machine { m := MachineA(); m.NVLinks = []NVLinkPair{{2, 2}}; return m },
		func() *Machine { // switch cycle
			m := MachineB()
			m.Points[2].Parent = "sw1"
			return m
		},
	}
	for i, f := range bad {
		if err := f().Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestClassicPlacementsA(t *testing.T) {
	m := MachineA()
	for _, l := range []ClassicLayout{LayoutA, LayoutB, LayoutC, LayoutD} {
		p, err := ClassicPlacement(m, l)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if err := p.Validate(m); err != nil {
			t.Errorf("%v: %v", l, err)
		}
		gpus, ssds := p.Counts()
		switch l {
		case LayoutA:
			if gpus["sw0"] != 2 || gpus["sw1"] != 2 {
				t.Errorf("(a) gpus %v", gpus)
			}
			if ssds["rc0"] != 8 {
				t.Errorf("(a) ssds %v", ssds)
			}
		case LayoutB:
			if gpus["sw0"] != 4 {
				t.Errorf("(b) gpus %v", gpus)
			}
		case LayoutC:
			if ssds["rc0"] != 4 || ssds["rc1"] != 4 {
				t.Errorf("(c) ssds %v", ssds)
			}
			if gpus["sw0"] != 2 || gpus["sw1"] != 2 {
				t.Errorf("(c) gpus %v", gpus)
			}
		case LayoutD:
			if gpus["sw0"] != 4 || ssds["rc0"] != 4 || ssds["rc1"] != 4 {
				t.Errorf("(d) gpus %v ssds %v", gpus, ssds)
			}
		}
	}
}

func TestClassicPlacementsB(t *testing.T) {
	m := MachineB()
	for _, l := range []ClassicLayout{LayoutA, LayoutB, LayoutC, LayoutD} {
		p, err := ClassicPlacement(m, l)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		gpus, ssds := p.Counts()
		switch l {
		case LayoutA:
			if ssds["rc1"] != 8 {
				t.Errorf("(a) ssds %v", ssds)
			}
			if gpus["sw0"] != 2 || gpus["sw1"] != 2 {
				t.Errorf("(a) gpus %v", gpus)
			}
		case LayoutB:
			if gpus["sw1"] != 4 {
				t.Errorf("(b) gpus %v (want all on the nested P2P switch)", gpus)
			}
		case LayoutC:
			if ssds["sw0"] != 2 || ssds["sw1"] != 2 || ssds["rc1"] != 4 {
				t.Errorf("(c) ssds %v", ssds)
			}
		case LayoutD:
			if gpus["sw1"] != 4 || ssds["sw0"] != 2 || ssds["sw1"] != 2 {
				t.Errorf("(d) gpus %v ssds %v", gpus, ssds)
			}
		}
	}
}

func TestClassicPlacementUnknownMachine(t *testing.T) {
	m := MachineC()
	if _, err := ClassicPlacement(m, LayoutA); err == nil {
		t.Error("expected error for machine C")
	}
}

func TestClassicPlacementReducedGPUs(t *testing.T) {
	for _, mk := range []func() *Machine{MachineA, MachineB} {
		for n := 1; n <= 4; n++ {
			m := mk().WithGPUs(n)
			for _, l := range []ClassicLayout{LayoutA, LayoutB, LayoutC, LayoutD} {
				p, err := ClassicPlacement(m, l)
				if err != nil {
					t.Fatalf("%s %v n=%d: %v", m.Name, l, n, err)
				}
				if len(p.GPUAt) != n {
					t.Errorf("%s %v n=%d: %d GPUs placed", m.Name, l, n, len(p.GPUAt))
				}
			}
		}
	}
}

func TestMomentPlacementB(t *testing.T) {
	m := MachineB()
	p, err := MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	gpus, ssds := p.Counts()
	// Fig 7: GPU0 on rc0; GPU3 + 4 SSDs on rc1; 2 SSDs on sw0; 2 SSDs + 2
	// GPUs on sw1.
	if gpus["rc0"] != 1 || gpus["rc1"] != 1 || gpus["sw1"] != 2 {
		t.Errorf("gpus %v", gpus)
	}
	if ssds["rc1"] != 4 || ssds["sw0"] != 2 || ssds["sw1"] != 2 {
		t.Errorf("ssds %v", ssds)
	}
	if _, err := MomentPlacementB(MachineA()); err == nil {
		t.Error("expected error for machine A")
	}
}

func TestPlacementValidateRejects(t *testing.T) {
	m := MachineA()
	cases := []*Placement{
		{GPUAt: []string{"sw0"}, SSDAt: fill(nil, "rc0", 8)},                       // wrong gpu count
		{GPUAt: fill(nil, "sw0", 4), SSDAt: fill(nil, "rc0", 5)},                   // wrong ssd count
		{GPUAt: fill(nil, "rc0", 4), SSDAt: fill(fill(nil, "rc0", 4), "rc1", 4)},   // no gpu slots at rc0
		{GPUAt: fill(nil, "sw0", 4), SSDAt: fill(nil, "sw0", 8)},                   // sw0 has no bays on A
		{GPUAt: fill(nil, "ghost", 4), SSDAt: fill(fill(nil, "rc0", 4), "rc1", 4)}, // unknown point
	}
	for i, p := range cases {
		if err := p.Validate(m); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPlacementStringAndClone(t *testing.T) {
	m := MachineB()
	p, err := MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"B(moment)", "rc1:4", "sw0:2", "sw1:2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	c := p.Clone()
	c.GPUAt[0] = "sw0"
	if p.GPUAt[0] != "rc0" {
		t.Error("Clone shares GPUAt")
	}
}

func TestWithGPUsDropsNVLinks(t *testing.T) {
	m := MachineA().WithNVLink(NVLinkBridgeBW, NVLinkPair{0, 1}, NVLinkPair{2, 3})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m2 := m.WithGPUs(2)
	if len(m2.NVLinks) != 1 || m2.NVLinks[0] != (NVLinkPair{0, 1}) {
		t.Errorf("NVLinks after WithGPUs(2): %v", m2.NVLinks)
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecRoundTrip: ParseSpec(FormatSpec(m)) is m, field for field, for
// every catalog machine with and without NVLink bridges, and formats to
// the same text again.
func TestSpecRoundTrip(t *testing.T) {
	var machines []*Machine
	for _, m := range MachineCatalog() {
		machines = append(machines, m)
		if m.NumGPUs >= 2 {
			machines = append(machines, m.WithNVLink(NVLinkBridgeBW, NVLinkPair{0, 1}))
		}
	}
	for _, m := range machines {
		spec := FormatSpec(m)
		got, err := ParseSpec(strings.NewReader(spec))
		if err != nil {
			t.Fatalf("%s: parse: %v\nspec:\n%s", m.Name, err, spec)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip changed the machine:\n got %+v\nwant %+v", m.Name, got, m)
		}
		if again := FormatSpec(got); again != spec {
			t.Errorf("%s: FormatSpec is not a fixpoint:\n%s\nthen\n%s", m.Name, spec, again)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	b := FormatSpec(MachineB())
	bad := []string{
		"bogus directive",
		"machine",
		"qpi",
		"qpi fast",
		"dram 1GiB",
		"gpus x",
		"gpus 4 weird=1",
		"ssds 8 cap=big",
		"pcie x16=?",
		"pcie y8=1GiB",
		"point sw0",
		"point sw0 transistor",
		"point sw0 switch parent=rc0 uplink=bad",
		"nvlink 0",
		"nvlink 0 x",
		"nodes",
		"machine X\npoint rc0 root bays=0 gpuslots=0\npoint sw0 switch parent=ghost uplink=1GiB bays=0 gpuslots=0",
		// Specs the planner cannot plan, or whose FormatSpec text would
		// not parse back.
		"point 0 root",
		withLine(b, "gpus", "gpus 0 mem=40GiB cachefrac=0.15"),
		withLine(b, "gpus", "gpus 4 mem=40GiB cachefrac=NaN"),
		withLine(b, "gpus", "gpus 4 mem=40GiB cachefrac=1.5"),
		withLine(b, "gpus", "gpus 4 mem=40GiB cachefrac=-0.1"),
		withLine(b, "qpi", "qpi NaNGbps"),
		withLine(b, "dram", "dram 256GiB +InfGbps"),
		withLine(b, "point sw0", "point sw0 switch parent=rc0 uplink=NaNGbps bays=2 gpuslots=4"),
		withLine(b, "pcie", "pcie x16=1"+strings.Repeat("0", 300)+"GiB/s x4=7GiB/s"),
		withLine(b, "nodes", "nodes 1 nic=NaNGbps"),
		withLine(b, "ssds", "ssds 8 cap=3932GiB bw=6GiB/s iops=NaN"),
		withLine(b, "ssds", "ssds 8 cap=3932GiB bw=6GiB/s iops=Inf"),
		withLine(b, "qpi", "qpi 0GiB/s"),
		withLine(b, "dram", "dram 256GiB 0GiB/s"),
		withLine(b, "pcie", "pcie x16=0GiB/s x4=7GiB/s"),
		withLine(b, "pcie", "pcie x16=20GiB/s x4=-7GiB/s"),
		withLine(b, "point sw0", "point sw0 switch parent=rc0 uplink=0GiB/s bays=2 gpuslots=4"),
		withLine(b, "point rc0", "point rc0 root uplink=20GiB/s bays=0 gpuslots=1"),
		withLine(b, "ssds", "ssds 8 cap=3932GiB bw=0GiB/s iops=930000"),
		withLine(b, "ssds", "ssds 8 cap=3932GiB bw=6GiB/s iops=0"),
		withLine(b, "ssds", "ssds 8 cap=0GiB bw=6GiB/s iops=930000"),
		b + "nvlink 0 1",
	}
	for i, s := range bad {
		if _, err := ParseSpec(strings.NewReader(s)); err == nil {
			t.Errorf("case %d (%q): expected error", i, s)
		}
	}
}

func TestParseSpecCommentsAndBlank(t *testing.T) {
	spec := "# a comment\n\n" + FormatSpec(MachineA())
	if _, err := ParseSpec(strings.NewReader(spec)); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		RootComplex: "root-complex", Switch: "switch", GPUDev: "gpu",
		SSDDev: "ssd", NICDev: "nic", Kind(42): "kind(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if LayoutA.String() != "(a)" || LayoutD.String() != "(d)" || ClassicLayout(9).String() != "layout(9)" {
		t.Error("layout names changed")
	}
}

func TestVendorMachinesValid(t *testing.T) {
	for _, m := range MachineCatalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if len(MachineCatalog()) != 5 {
		t.Errorf("catalog size %d", len(MachineCatalog()))
	}
	// The Falcon cascade is three switches deep.
	f := H3Falcon4016()
	d, err := f.Depth("sw2")
	if err != nil || d != 3 {
		t.Errorf("falcon sw2 depth %d, %v", d, err)
	}
	// The Supermicro chassis is balanced: mirrored sockets.
	sm := Supermicro420GP()
	if sm.TotalGPUSlots() != 8 || sm.TotalBays() != 16 {
		t.Errorf("supermicro slots %d bays %d", sm.TotalGPUSlots(), sm.TotalBays())
	}
}

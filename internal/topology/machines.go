package topology

import (
	"fmt"

	"moment/internal/units"
)

// Calibrated link rates. The paper quotes PCIe 4.0 x16 at "around 20 GiB/s"
// and 8× P5510 at a 48 GiB/s aggregate (§2.2); QPI/UPI per-direction rates
// come from the profiling step (§3.1) and are set to the commonly measured
// value for Ice-Lake-era Xeon interconnects.
var (
	// PCIe4x16 is usable bandwidth of a PCIe 4.0 x16 link, per direction.
	PCIe4x16 = units.GiBps(20)
	// PCIe4x4 is usable bandwidth of a PCIe 4.0 x4 U.2 bay link.
	PCIe4x4 = units.GiBps(7)
	// PCIe3x16 is usable bandwidth of a PCIe 3.0 x16 link (Machine C).
	PCIe3x16 = units.GiBps(12)
	// QPIRate is the effective per-direction socket-interconnect rate for
	// cross-socket PCIe peer traffic. The wire rate of 3x UPI links is
	// higher, but profiled DMA throughput across sockets lands near this
	// value, which is what the paper's profiling step would record.
	QPIRate = units.GiBps(20)
	// P5510BW is the sustained read bandwidth of one Intel P5510 SSD.
	P5510BW = units.GiBps(6)
	// P5510IOPS is the 4K random-read IOPS ceiling of one P5510.
	P5510IOPS = 930_000.0
	// DRAMServeBW is the effective rate at which one socket's DRAM can
	// serve feature reads onto the PCIe fabric.
	DRAMServeBW = units.GiBps(36)
	// NVLinkBridgeBW is the per-direction rate of an A100 NVLink bridge.
	NVLinkBridgeBW = units.GiBps(50)
)

// MachineA returns the balanced-topology server of Table 1 / Figure 1:
// two sockets joined by QPI; each root complex exposes eight U.2 bays
// (Buses 1–8) and one PCIe switch (Bus 9) carrying four x16 dual-width
// slots. 4× A100-40G, 8× P5510, 768 GB DRAM.
func MachineA() *Machine {
	return &Machine{
		Name: "A",
		Points: []AttachPoint{
			{ID: "rc0", Kind: RootComplex, Bays: 8},
			{ID: "rc1", Kind: RootComplex, Bays: 8},
			{ID: "sw0", Kind: Switch, Parent: "rc0", UplinkBW: PCIe4x16, GPUSlots: 4},
			{ID: "sw1", Kind: Switch, Parent: "rc1", UplinkBW: PCIe4x16, GPUSlots: 4},
		},
		QPIBW:         QPIRate,
		DRAMPerSocket: units.GB(384), // 768 GB total across 2 sockets
		DRAMBW:        DRAMServeBW,
		NumGPUs:       4,
		NumSSDs:       8,
		GPUMemory:     units.GB(40),
		GPUCacheFrac:  0.15,
		SSDCapacity:   units.TB(3.84),
		SSDBW:         P5510BW,
		SSDIOPS:       P5510IOPS,
		PCIeX16:       PCIe4x16,
		PCIeX4:        PCIe4x4,
		NumNodes:      1,
	}
}

// MachineB returns the cascaded-topology server of Table 1 / Figure 2:
// root complex 0 reaches PCIe switch 0 via Bus 11, and switch 1 cascades
// off switch 0 via Bus 16 (the H3 Falcon-style nesting of footnote 1).
// Each switch carries two U.2 bays (Buses 12–13 and 17–18); the front
// board's eight hot-swap bays hang off root complex 1, which also has an
// x16 slot of its own.
func MachineB() *Machine {
	return &Machine{
		Name: "B",
		Points: []AttachPoint{
			{ID: "rc0", Kind: RootComplex, GPUSlots: 1},
			{ID: "rc1", Kind: RootComplex, Bays: 8, GPUSlots: 1},
			{ID: "sw0", Kind: Switch, Parent: "rc0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 4},
			{ID: "sw1", Kind: Switch, Parent: "sw0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 4},
		},
		QPIBW:         QPIRate,
		DRAMPerSocket: units.GB(256), // 512 GB total
		DRAMBW:        DRAMServeBW,
		NumGPUs:       4,
		NumSSDs:       8,
		GPUMemory:     units.GB(40),
		GPUCacheFrac:  0.15,
		SSDCapacity:   units.TB(3.84),
		SSDBW:         P5510BW,
		SSDIOPS:       P5510IOPS,
		PCIeX16:       PCIe4x16,
		PCIeX4:        PCIe4x4,
		NumNodes:      1,
	}
}

// MachineC returns one node of the four-node DistDGL cluster of Table 1:
// one A100 per node, no local SSDs, 256 GB DRAM, PCIe 3.0 x16, 100 Gbps NIC.
func MachineC() *Machine {
	return &Machine{
		Name: "C",
		Points: []AttachPoint{
			{ID: "rc0", Kind: RootComplex, GPUSlots: 1},
			{ID: "rc1", Kind: RootComplex, GPUSlots: 1},
		},
		QPIBW:         QPIRate,
		DRAMPerSocket: units.GB(128), // 256 GB total
		DRAMBW:        DRAMServeBW,
		NumGPUs:       1,
		NumSSDs:       0,
		GPUMemory:     units.GB(40),
		GPUCacheFrac:  0.15,
		PCIeX16:       PCIe3x16,
		PCIeX4:        units.GiBps(3.5),
		NumNodes:      4,
		NICBW:         units.Gbps(100),
	}
}

// WithGPUs returns a copy of the machine restricted to n GPUs (scalability
// experiments vary GPU count from 1 to 4, Fig 16).
func (m *Machine) WithGPUs(n int) *Machine {
	c := m.Clone()
	c.NumGPUs = n
	var nv []NVLinkPair
	for _, p := range c.NVLinks {
		if p.A < n && p.B < n {
			nv = append(nv, p)
		}
	}
	c.NVLinks = nv
	return c
}

// ClassicLayout identifies the four hardware layouts of §2.3 (Figures 1–2):
// SSDs either prioritize the "front board" or spread evenly, crossed with
// GPUs either packed on one PCIe switch (P2P-prioritized) or spread evenly.
type ClassicLayout int

const (
	// LayoutA: front-board SSDs, GPUs spread across switches.
	LayoutA ClassicLayout = iota
	// LayoutB: front-board SSDs, GPUs packed on one switch.
	LayoutB
	// LayoutC: SSDs spread evenly, GPUs spread evenly.
	LayoutC
	// LayoutD: SSDs spread evenly, GPUs packed on one switch.
	LayoutD
)

// String names the layout as the paper does.
func (l ClassicLayout) String() string {
	switch l {
	case LayoutA:
		return "(a)"
	case LayoutB:
		return "(b)"
	case LayoutC:
		return "(c)"
	case LayoutD:
		return "(d)"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// ClassicPlacement constructs one of the four §2.3 layouts for a machine,
// honoring a reduced GPU count (2..4) for the scaling studies. Supported
// machines are A and B; other machines return an error.
func ClassicPlacement(m *Machine, l ClassicLayout) (*Placement, error) {
	switch m.Name {
	case "A":
		return classicA(m, l)
	case "B":
		return classicB(m, l)
	}
	return nil, fmt.Errorf("topology: no classic layouts defined for machine %q", m.Name)
}

func classicA(m *Machine, l ClassicLayout) (*Placement, error) {
	p := &Placement{Name: "A" + l.String()}
	// SSDs: the "front board" hot-swap bays are wired to root complex 0
	// (Buses 1-8), so front-prioritized placement funnels all SSD traffic
	// through Bus 9 / QPI toward the GPUs (the Fig 1a/1b contention);
	// "even" splits the bays across the two sockets.
	switch l {
	case LayoutA, LayoutB:
		p.SSDAt = fill(nil, "rc0", m.NumSSDs)
	case LayoutC, LayoutD:
		h := m.NumSSDs / 2
		p.SSDAt = fill(nil, "rc0", h)
		p.SSDAt = fill(p.SSDAt, "rc1", m.NumSSDs-h)
	default:
		return nil, fmt.Errorf("topology: unknown layout %v", l)
	}
	// GPUs: packed on sw0, or split sw0/sw1.
	switch l {
	case LayoutB, LayoutD:
		p.GPUAt = fill(nil, "sw0", m.NumGPUs)
	default:
		h := (m.NumGPUs + 1) / 2
		p.GPUAt = fill(nil, "sw0", h)
		p.GPUAt = fill(p.GPUAt, "sw1", m.NumGPUs-h)
	}
	return p, p.Validate(m)
}

func classicB(m *Machine, l ClassicLayout) (*Placement, error) {
	p := &Placement{Name: "B" + l.String()}
	// SSDs: the "front board" hot-swap bays hang off root complex 1, so
	// front-prioritized placement forces SSD traffic across QPI and Bus 11
	// toward the GPU cascade (the contention Fig 2a/2b reports); "even"
	// spreads the SSDs across the two PLX switches (Fig 2c/2d, where the
	// contended links become Bus 11 and Bus 16).
	switch l {
	case LayoutA, LayoutB:
		p.SSDAt = fill(nil, "rc1", m.NumSSDs)
	case LayoutC, LayoutD:
		p.SSDAt = fill(nil, "sw0", min(2, m.NumSSDs))
		p.SSDAt = fill(p.SSDAt, "sw1", min(2, max(0, m.NumSSDs-2)))
		p.SSDAt = fill(p.SSDAt, "rc1", max(0, m.NumSSDs-4))
	default:
		return nil, fmt.Errorf("topology: unknown layout %v", l)
	}
	// GPUs: packed on sw1 (the all-to-all P2P switch, footnote 3), or
	// split sw0/sw1 (Fig 2c: GPU0,1 on sw0; GPU2,3 on sw1).
	switch l {
	case LayoutB, LayoutD:
		p.GPUAt = fill(nil, "sw1", m.NumGPUs)
	default:
		h := (m.NumGPUs + 1) / 2
		p.GPUAt = fill(nil, "sw0", h)
		p.GPUAt = fill(p.GPUAt, "sw1", m.NumGPUs-h)
	}
	return p, p.Validate(m)
}

// MomentPlacementB is the published optimal layout for Machine B with 4
// GPUs and 8 SSDs (Fig 7): GPU0 on rc0; GPU3 plus four SSDs on rc1; two
// SSDs on switch 0; two SSDs and two GPUs on switch 1.
func MomentPlacementB(m *Machine) (*Placement, error) {
	if m.Name != "B" {
		return nil, fmt.Errorf("topology: MomentPlacementB wants machine B, got %q", m.Name)
	}
	p := &Placement{
		Name:  "B(moment)",
		GPUAt: []string{"rc0", "sw1", "sw1", "rc1"},
		SSDAt: []string{"rc1", "rc1", "rc1", "rc1", "sw0", "sw0", "sw1", "sw1"},
	}
	p.GPUAt = p.GPUAt[:m.NumGPUs]
	return p, p.Validate(m)
}

func fill(s []string, id string, n int) []string {
	for i := 0; i < n; i++ {
		s = append(s, id)
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

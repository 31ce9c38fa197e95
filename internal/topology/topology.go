// Package topology models the physical communication topology of a
// multi-GPU, multi-SSD server: root complexes, PCIe switches, slots, and
// the links (PCIe, QPI/UPI, NVLink) between them (paper §2.3, Figures 1–2).
//
// In the paper this information is extracted from a live machine with
// lspci/dmidecode; here a Machine is either built programmatically (the
// evaluated Machines A, B and C of Table 1 ship as constructors) or parsed
// from a textual spec (see spec.go), which substitutes for hardware
// extraction while exercising the same downstream pipeline.
package topology

import (
	"fmt"
	"math"
	"sort"

	"moment/internal/units"
)

// Kind classifies a topology node.
type Kind int

const (
	// RootComplex is a CPU socket's PCIe root complex (with attached DRAM).
	RootComplex Kind = iota
	// Switch is a PCIe switch (PLX).
	Switch
	// GPUDev is a GPU placed in an x16 dual-width slot.
	GPUDev
	// SSDDev is an NVMe SSD placed in an x4 U.2 bay.
	SSDDev
	// NICDev is a network interface card (occupies a slot; used by Machine C).
	NICDev
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RootComplex:
		return "root-complex"
	case Switch:
		return "switch"
	case GPUDev:
		return "gpu"
	case SSDDev:
		return "ssd"
	case NICDev:
		return "nic"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// AttachPoint is a place devices can be plugged into: a root complex or a
// PCIe switch, with a fixed uplink into the tree and a slot inventory.
type AttachPoint struct {
	ID     string // unique, e.g. "rc0", "sw1"
	Kind   Kind   // RootComplex or Switch
	Parent string // parent attach point ID; "" for root complexes

	// UplinkBW is the per-direction bandwidth of the link to Parent
	// (the PCIe bus the paper numbers, e.g. Bus 9, Bus 11, Bus 16).
	// Unused for root complexes, which peer over QPI.
	UplinkBW units.Bandwidth

	// Bays is the number of x4 U.2 bays (SSD-capable).
	Bays int
	// GPUSlots is the number of x16 dual-width slots (GPU-capable).
	GPUSlots int
}

// NVLinkPair connects two GPU indices with a point-to-point NVLink bridge.
type NVLinkPair struct {
	A, B int
}

// Machine describes a server's fixed infrastructure plus its device
// inventory. Device positions are NOT part of Machine — they live in
// Placement — because choosing them is exactly Moment's job.
type Machine struct {
	Name   string
	Points []AttachPoint // root complexes first, then switches

	// QPIBW is the per-direction bandwidth of the socket interconnect
	// (QPI/UPI) joining the root complexes.
	QPIBW units.Bandwidth

	// Per-socket CPU memory used as a feature cache, and its effective
	// egress bandwidth toward the root complex.
	DRAMPerSocket units.Bytes
	DRAMBW        units.Bandwidth

	// Device inventory.
	NumGPUs int
	NumSSDs int

	// GPUMemory is per-GPU HBM; GPUCacheFrac of it is usable as a feature
	// cache (the rest holds model state, buffers, sampling frontier).
	GPUMemory    units.Bytes
	GPUCacheFrac float64

	// SSD characteristics (per device).
	SSDCapacity units.Bytes
	SSDBW       units.Bandwidth // sequential-ish read bandwidth
	SSDIOPS     float64         // 4K random read IOPS ceiling

	// Link generation bandwidths (per direction).
	PCIeX16 units.Bandwidth // GPU slots and switch uplinks
	PCIeX4  units.Bandwidth // U.2 bays

	// NVLink bridges between GPU indices (optional; Fig 18).
	NVLinks  []NVLinkPair
	NVLinkBW units.Bandwidth

	// Cluster parameters (Machine C): when NumNodes > 1 the machine is one
	// node of a cluster joined by NICBW links.
	NumNodes int
	NICBW    units.Bandwidth
}

// Point returns the attach point with the given ID.
func (m *Machine) Point(id string) (*AttachPoint, error) {
	for i := range m.Points {
		if m.Points[i].ID == id {
			return &m.Points[i], nil
		}
	}
	return nil, fmt.Errorf("topology: no attach point %q on %s", id, m.Name)
}

// RootComplexes returns the IDs of the machine's root complexes in order.
func (m *Machine) RootComplexes() []string {
	var ids []string
	for _, p := range m.Points {
		if p.Kind == RootComplex {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// Socket returns the root complex ID a point ultimately hangs off.
func (m *Machine) Socket(id string) (string, error) {
	seen := 0
	for {
		p, err := m.Point(id)
		if err != nil {
			return "", err
		}
		if p.Kind == RootComplex {
			return p.ID, nil
		}
		id = p.Parent
		if seen++; seen > len(m.Points) {
			return "", fmt.Errorf("topology: cycle at %q on %s", id, m.Name)
		}
	}
}

// Depth returns how many uplinks separate the point from its root complex.
func (m *Machine) Depth(id string) (int, error) {
	d := 0
	for {
		p, err := m.Point(id)
		if err != nil {
			return 0, err
		}
		if p.Kind == RootComplex {
			return d, nil
		}
		id = p.Parent
		if d++; d > len(m.Points) {
			return 0, fmt.Errorf("topology: cycle at %q on %s", id, m.Name)
		}
	}
}

// Validate checks structural invariants (a name, unique IDs, valid
// parents, at least one root complex and none with an uplink, an acyclic
// switch tree, at least one GPU and an inventory that fits the slots) and
// the figures the planner divides by: every rate, size and IOPS value is
// finite, every link rate is positive, the SSD figures are positive when
// there are SSDs, the NVLink rate is positive when there are NVLinks, and
// the GPU cache fraction lies in [0,1]. A byte rate that is not zero is at
// least 1 B/s: its GiB/s form is then exact, so FormatSpec writes it back
// unchanged.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("topology: machine has no name")
	}
	if len(m.Points) == 0 {
		return fmt.Errorf("topology: %s has no attach points", m.Name)
	}
	index := make(map[string]int, len(m.Points))
	rcs := 0
	for i, p := range m.Points {
		if p.ID == "" {
			return fmt.Errorf("topology: %s has an unnamed attach point", m.Name)
		}
		if _, dup := index[p.ID]; dup {
			return fmt.Errorf("topology: duplicate attach point %q", p.ID)
		}
		index[p.ID] = i
		switch p.Kind {
		case RootComplex:
			rcs++
			if p.Parent != "" {
				return fmt.Errorf("topology: root complex %q has a parent", p.ID)
			}
			if p.UplinkBW != 0 {
				return fmt.Errorf("topology: root complex %q has an uplink", p.ID)
			}
		case Switch:
			if p.Parent == "" {
				return fmt.Errorf("topology: switch %q has no parent", p.ID)
			}
			if up := float64(p.UplinkBW); !(up >= 1) || math.IsInf(up, 1) {
				return fmt.Errorf("topology: switch %q uplink rate %v B/s is not a finite rate of at least 1 B/s", p.ID, up)
			}
		default:
			return fmt.Errorf("topology: attach point %q has device kind %v", p.ID, p.Kind)
		}
		if p.Bays < 0 || p.GPUSlots < 0 {
			return fmt.Errorf("topology: %q has negative slot counts", p.ID)
		}
	}
	if rcs == 0 {
		return fmt.Errorf("topology: %s has no root complex", m.Name)
	}
	// up[i] is the index of point i's parent, or -1 once point i is known
	// to hang off a root complex. Each walk marks the points it passed, so
	// a deep cascade validates in linear time, not one walk per switch.
	var buf [32]int
	up := buf[:0]
	for _, p := range m.Points {
		if p.Kind == RootComplex {
			up = append(up, -1)
			continue
		}
		j, ok := index[p.Parent]
		if !ok {
			return fmt.Errorf("topology: switch %q parent %q unknown", p.ID, p.Parent)
		}
		up = append(up, j)
	}
	for i := range up {
		for j, steps := i, 0; up[j] >= 0; j = up[j] {
			if steps++; steps > len(up) {
				return fmt.Errorf("topology: cycle at %q on %s", m.Points[j].ID, m.Name)
			}
		}
		for j := i; up[j] >= 0; {
			next := up[j]
			up[j] = -1
			j = next
		}
	}
	if m.NumGPUs < 1 {
		return fmt.Errorf("topology: %s has %d GPUs, want at least 1", m.Name, m.NumGPUs)
	}
	if m.NumSSDs < 0 {
		return fmt.Errorf("topology: %s has a negative SSD count", m.Name)
	}
	if g, s := m.TotalGPUSlots(), m.TotalBays(); m.NumGPUs > g || m.NumSSDs > s {
		return fmt.Errorf("topology: %s inventory (%d GPUs, %d SSDs) exceeds slots (%d, %d)",
			m.Name, m.NumGPUs, m.NumSSDs, g, s)
	}
	for _, nv := range m.NVLinks {
		if nv.A < 0 || nv.B < 0 || nv.A >= m.NumGPUs || nv.B >= m.NumGPUs || nv.A == nv.B {
			return fmt.Errorf("topology: bad NVLink pair (%d,%d)", nv.A, nv.B)
		}
	}
	if !(m.GPUCacheFrac >= 0 && m.GPUCacheFrac <= 1) {
		return fmt.Errorf("topology: %s GPU cache fraction %v outside [0,1]", m.Name, m.GPUCacheFrac)
	}
	for _, f := range []struct {
		name     string
		v        float64
		positive bool // must be > 0, not just finite and non-negative
		rate     bool // a byte rate: zero or at least 1 B/s
	}{
		{"DRAM per socket", float64(m.DRAMPerSocket), true, false},
		{"GPU memory", float64(m.GPUMemory), false, false},
		{"QPI rate", float64(m.QPIBW), true, true},
		{"DRAM rate", float64(m.DRAMBW), true, true},
		{"PCIe x16 rate", float64(m.PCIeX16), true, true},
		{"PCIe x4 rate", float64(m.PCIeX4), true, true},
		{"SSD rate", float64(m.SSDBW), m.NumSSDs > 0, true},
		{"SSD IOPS", m.SSDIOPS, m.NumSSDs > 0, false},
		{"SSD capacity", float64(m.SSDCapacity), m.NumSSDs > 0, false},
		{"NVLink rate", float64(m.NVLinkBW), len(m.NVLinks) > 0, true},
		{"NIC rate", float64(m.NICBW), false, true},
	} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return fmt.Errorf("topology: %s %s %v is not finite", m.Name, f.name, f.v)
		}
		if f.positive && f.v <= 0 {
			return fmt.Errorf("topology: %s %s %v is not positive", m.Name, f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("topology: %s %s %v is negative", m.Name, f.name, f.v)
		}
		if f.rate && f.v > 0 && f.v < 1 {
			return fmt.Errorf("topology: %s %s %v B/s is under 1 B/s", m.Name, f.name, f.v)
		}
	}
	return nil
}

// TotalGPUSlots sums x16 dual-width slots across attach points.
func (m *Machine) TotalGPUSlots() int {
	n := 0
	for _, p := range m.Points {
		n += p.GPUSlots
	}
	return n
}

// TotalBays sums U.2 bays across attach points.
func (m *Machine) TotalBays() int {
	n := 0
	for _, p := range m.Points {
		n += p.Bays
	}
	return n
}

// AggregateSSDBW is the peak combined SSD read bandwidth (e.g. 48 GiB/s for
// 8× P5510 on Machine A, §2.2).
func (m *Machine) AggregateSSDBW() units.Bandwidth {
	return units.Bandwidth(float64(m.SSDBW) * float64(m.NumSSDs))
}

// Clone deep-copies the machine.
func (m *Machine) Clone() *Machine {
	c := *m
	c.Points = append([]AttachPoint(nil), m.Points...)
	c.NVLinks = append([]NVLinkPair(nil), m.NVLinks...)
	return &c
}

// WithNVLink returns a copy with NVLink bridges between the given GPU pairs
// (Fig 18 adds GPU0–GPU1 and GPU2–GPU3 bridges).
func (m *Machine) WithNVLink(bw units.Bandwidth, pairs ...NVLinkPair) *Machine {
	c := m.Clone()
	c.NVLinkBW = bw
	c.NVLinks = append(c.NVLinks, pairs...)
	return c
}

// Placement assigns every GPU and SSD to an attach point. Devices of the
// same kind are interchangeable, so a placement is fully described by the
// attach point of each device index.
type Placement struct {
	Name  string
	GPUAt []string // len == Machine.NumGPUs
	SSDAt []string // len == Machine.NumSSDs
}

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	return &Placement{
		Name:  p.Name,
		GPUAt: append([]string(nil), p.GPUAt...),
		SSDAt: append([]string(nil), p.SSDAt...),
	}
}

// Counts returns the number of GPUs and SSDs placed at each attach point.
func (p *Placement) Counts() (gpus, ssds map[string]int) {
	gpus = make(map[string]int)
	ssds = make(map[string]int)
	for _, at := range p.GPUAt {
		gpus[at]++
	}
	for _, at := range p.SSDAt {
		ssds[at]++
	}
	return gpus, ssds
}

// Validate checks the placement against the machine's slot inventory.
func (p *Placement) Validate(m *Machine) error {
	if len(p.GPUAt) != m.NumGPUs {
		return fmt.Errorf("topology: placement has %d GPUs, machine %s has %d",
			len(p.GPUAt), m.Name, m.NumGPUs)
	}
	if len(p.SSDAt) != m.NumSSDs {
		return fmt.Errorf("topology: placement has %d SSDs, machine %s has %d",
			len(p.SSDAt), m.Name, m.NumSSDs)
	}
	gpus, ssds := p.Counts()
	for at, n := range gpus {
		pt, err := m.Point(at)
		if err != nil {
			return err
		}
		if n > pt.GPUSlots {
			return fmt.Errorf("topology: %d GPUs at %q but only %d x16 slots", n, at, pt.GPUSlots)
		}
	}
	for at, n := range ssds {
		pt, err := m.Point(at)
		if err != nil {
			return err
		}
		if n > pt.Bays {
			return fmt.Errorf("topology: %d SSDs at %q but only %d bays", n, at, pt.Bays)
		}
	}
	return nil
}

// String renders the placement compactly, e.g.
// "moment: gpu[rc0 sw1 sw1 rc1] ssd[rc1:4 sw0:2 sw1:2]".
func (p *Placement) String() string {
	_, ssds := p.Counts()
	keys := make([]string, 0, len(ssds))
	for k := range ssds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := p.Name + ": gpu["
	for i, at := range p.GPUAt {
		if i > 0 {
			s += " "
		}
		s += at
	}
	s += "] ssd["
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", k, ssds[k])
	}
	return s + "]"
}

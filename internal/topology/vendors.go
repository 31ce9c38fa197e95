package topology

import "moment/internal/units"

// Vendor-inspired chassis the paper points at: §2.3 cites build-to-order
// servers (Dell custom servers, the Supermicro SYS-420GP-TNR 4U
// SuperServer) and footnote 1 cites the H3 Falcon 4016's cascaded-switch
// PCIe expansion as a real-world asymmetric topology. These builders give
// the placement search richer, larger search spaces than Machines A/B and
// back the "wide applicability to various server topologies" claim of
// §3.3.

// Supermicro420GP models a SYS-420GP-TNR-class 4U dual-socket chassis:
// each socket drives two PLX switches, each switch carrying two x16
// dual-width slots and two U.2 bays, plus four direct bays per socket —
// a balanced topology with a much larger slot inventory than Machine A.
func Supermicro420GP() *Machine {
	return &Machine{
		Name: "SM420GP",
		Points: []AttachPoint{
			{ID: "rc0", Kind: RootComplex, Bays: 4},
			{ID: "rc1", Kind: RootComplex, Bays: 4},
			{ID: "sw0", Kind: Switch, Parent: "rc0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
			{ID: "sw1", Kind: Switch, Parent: "rc0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
			{ID: "sw2", Kind: Switch, Parent: "rc1", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
			{ID: "sw3", Kind: Switch, Parent: "rc1", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
		},
		QPIBW:         QPIRate,
		DRAMPerSocket: units.GB(512),
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

// H3Falcon4016 models an H3 Falcon 4016-style PCIe expansion chassis
// (footnote 1): a deep cascade of switches below one root complex — sw0
// feeds sw1 feeds sw2 — giving all-to-all GPU P2P at the price of a
// heavily shared trunk, the most asymmetric topology in the catalog.
func H3Falcon4016() *Machine {
	return &Machine{
		Name: "Falcon4016",
		Points: []AttachPoint{
			{ID: "rc0", Kind: RootComplex, GPUSlots: 1},
			{ID: "rc1", Kind: RootComplex, Bays: 8, GPUSlots: 1},
			{ID: "sw0", Kind: Switch, Parent: "rc0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
			{ID: "sw1", Kind: Switch, Parent: "sw0", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
			{ID: "sw2", Kind: Switch, Parent: "sw1", UplinkBW: PCIe4x16, Bays: 2, GPUSlots: 2},
		},
		QPIBW:         QPIRate,
		DRAMPerSocket: units.GB(256),
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

// Catalog lists every built-in machine, evaluation platforms and vendor
// chassis alike.
func MachineCatalog() []*Machine {
	return []*Machine{MachineA(), MachineB(), MachineC(), Supermicro420GP(), H3Falcon4016()}
}

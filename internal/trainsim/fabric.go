package trainsim

import (
	"fmt"
	"math"

	"moment/internal/simnet"
	"moment/internal/topology"
)

// Fabric wires a machine+placement into a simnet link network and provides
// tree-path routing between storage devices and GPUs. PCIe and QPI links
// are full duplex: each physical link contributes one simnet link per
// direction, so egress and ingress never contend with each other (only
// with same-direction traffic).
type Fabric struct {
	Net *simnet.Net
	M   *topology.Machine
	P   *topology.Placement

	up      map[string]simnet.LinkID // child point -> link child→parent
	down    map[string]simnet.LinkID // child point -> link parent→child
	qpi     map[[2]string]simnet.LinkID
	ssdOut  []simnet.LinkID
	dramOut map[string]simnet.LinkID
	gpuIn   []simnet.LinkID
	gpuOut  []simnet.LinkID // P2P serving egress over the GPU's own slot
	nvl     map[[2]int]simnet.LinkID

	chains map[string][]string // point -> [point, ..., root complex]
}

// NewFabric builds the link network for machine m under placement p.
func NewFabric(m *topology.Machine, p *topology.Placement) (*Fabric, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	f := &Fabric{
		Net:     simnet.New(),
		M:       m,
		P:       p,
		up:      map[string]simnet.LinkID{},
		down:    map[string]simnet.LinkID{},
		qpi:     map[[2]string]simnet.LinkID{},
		dramOut: map[string]simnet.LinkID{},
		nvl:     map[[2]int]simnet.LinkID{},
		chains:  map[string][]string{},
	}
	for _, pt := range m.Points {
		chain := []string{pt.ID}
		cur := pt
		for cur.Kind == topology.Switch {
			parent, err := m.Point(cur.Parent)
			if err != nil {
				return nil, err
			}
			chain = append(chain, parent.ID)
			cur = *parent
		}
		f.chains[pt.ID] = chain
		if pt.Kind == topology.Switch {
			upl, err := f.Net.AddLink("up:"+pt.ID, float64(pt.UplinkBW))
			if err != nil {
				return nil, err
			}
			dnl, err := f.Net.AddLink("down:"+pt.ID, float64(pt.UplinkBW))
			if err != nil {
				return nil, err
			}
			f.up[pt.ID] = upl
			f.down[pt.ID] = dnl
		}
	}
	rcs := m.RootComplexes()
	for i := 0; i < len(rcs); i++ {
		for j := 0; j < len(rcs); j++ {
			if i == j {
				continue
			}
			l, err := f.Net.AddLink(fmt.Sprintf("qpi:%s>%s", rcs[i], rcs[j]), float64(m.QPIBW))
			if err != nil {
				return nil, err
			}
			f.qpi[[2]string{rcs[i], rcs[j]}] = l
		}
	}
	ssdRate := math.Min(float64(m.SSDBW), float64(m.PCIeX4))
	for i := 0; i < m.NumSSDs; i++ {
		l, err := f.Net.AddLink(fmt.Sprintf("ssd%d", i), ssdRate)
		if err != nil {
			return nil, err
		}
		f.ssdOut = append(f.ssdOut, l)
	}
	for _, rc := range rcs {
		l, err := f.Net.AddLink("dram:"+rc, float64(m.DRAMBW))
		if err != nil {
			return nil, err
		}
		f.dramOut[rc] = l
	}
	for i := 0; i < m.NumGPUs; i++ {
		in, err := f.Net.AddLink(fmt.Sprintf("gpu%d:in", i), float64(m.PCIeX16))
		if err != nil {
			return nil, err
		}
		out, err := f.Net.AddLink(fmt.Sprintf("gpu%d:out", i), float64(m.PCIeX16))
		if err != nil {
			return nil, err
		}
		f.gpuIn = append(f.gpuIn, in)
		f.gpuOut = append(f.gpuOut, out)
	}
	for _, nvp := range m.NVLinks {
		ab, err := f.Net.AddLink(fmt.Sprintf("nvl:%d>%d", nvp.A, nvp.B), float64(m.NVLinkBW))
		if err != nil {
			return nil, err
		}
		ba, err := f.Net.AddLink(fmt.Sprintf("nvl:%d>%d", nvp.B, nvp.A), float64(m.NVLinkBW))
		if err != nil {
			return nil, err
		}
		f.nvl[[2]int{nvp.A, nvp.B}] = ab
		f.nvl[[2]int{nvp.B, nvp.A}] = ba
	}
	return f, nil
}

// fabricPath returns the directed link path from storage attach point src
// to GPU attach point dst (excluding the device-edge links, which callers
// prepend/append).
func (f *Fabric) fabricPath(src, dst string) []simnet.LinkID {
	if src == dst {
		return nil
	}
	sc := f.chains[src]
	dc := f.chains[dst]
	// Find the lowest common point of the two chains, if any.
	pos := map[string]int{}
	for i, id := range sc {
		pos[id] = i
	}
	lcaS, lcaD := -1, -1
	for j, id := range dc {
		if i, ok := pos[id]; ok {
			lcaS, lcaD = i, j
			break
		}
	}
	var path []simnet.LinkID
	if lcaS >= 0 {
		// Same socket subtree: up src..lca, down lca..dst.
		for i := 0; i < lcaS; i++ {
			path = append(path, f.up[sc[i]])
		}
		for j := lcaD - 1; j >= 0; j-- {
			path = append(path, f.down[dc[j]])
		}
		return path
	}
	// Cross-socket: up to src's RC, QPI, down from dst's RC.
	for i := 0; i < len(sc)-1; i++ {
		path = append(path, f.up[sc[i]])
	}
	path = append(path, f.qpi[[2]string{sc[len(sc)-1], dc[len(dc)-1]}])
	for j := len(dc) - 2; j >= 0; j-- {
		path = append(path, f.down[dc[j]])
	}
	return path
}

// PathSSDToGPU routes SSD i's traffic to GPU g: SSD egress, fabric, slot
// ingress.
func (f *Fabric) PathSSDToGPU(ssd, gpu int) ([]simnet.LinkID, error) {
	if ssd < 0 || ssd >= f.M.NumSSDs || gpu < 0 || gpu >= f.M.NumGPUs {
		return nil, fmt.Errorf("trainsim: path ssd%d->gpu%d out of range", ssd, gpu)
	}
	path := []simnet.LinkID{f.ssdOut[ssd]}
	path = append(path, f.fabricPath(f.P.SSDAt[ssd], f.P.GPUAt[gpu])...)
	return append(path, f.gpuIn[gpu]), nil
}

// PathDRAMToGPU routes socket rc's CPU-memory traffic to GPU g.
func (f *Fabric) PathDRAMToGPU(rc string, gpu int) ([]simnet.LinkID, error) {
	l, ok := f.dramOut[rc]
	if !ok {
		return nil, fmt.Errorf("trainsim: unknown socket %q", rc)
	}
	if gpu < 0 || gpu >= f.M.NumGPUs {
		return nil, fmt.Errorf("trainsim: gpu %d out of range", gpu)
	}
	path := []simnet.LinkID{l}
	path = append(path, f.fabricPath(rc, f.P.GPUAt[gpu])...)
	return append(path, f.gpuIn[gpu]), nil
}

// PathHBMToGPU routes GPU src's cache traffic to GPU dst. Local access
// (src == dst) returns an empty path (HBM hit, no fabric). NVLinked pairs
// take the direct bridge; otherwise the data leaves over src's slot
// egress, crosses the fabric, and enters dst's slot.
func (f *Fabric) PathHBMToGPU(src, dst int) ([]simnet.LinkID, error) {
	if src < 0 || src >= f.M.NumGPUs || dst < 0 || dst >= f.M.NumGPUs {
		return nil, fmt.Errorf("trainsim: hbm path %d->%d out of range", src, dst)
	}
	if src == dst {
		return nil, nil
	}
	if l, ok := f.nvl[[2]int{src, dst}]; ok {
		return []simnet.LinkID{l}, nil
	}
	path := []simnet.LinkID{f.gpuOut[src]}
	path = append(path, f.fabricPath(f.P.GPUAt[src], f.P.GPUAt[dst])...)
	return append(path, f.gpuIn[dst]), nil
}

// linkNames returns the names of the fabric's links in link order.
func (f *Fabric) linkNames() []string {
	names := make([]string, f.Net.NumLinks())
	for i := range names {
		names[i] = f.Net.LinkName(simnet.LinkID(i))
	}
	return names
}

// QPIBytes sums bytes carried over all socket-interconnect links in a
// completed run.
func (f *Fabric) QPIBytes(res *simnet.Result) float64 {
	total := 0.0
	for _, l := range f.qpi {
		total += res.LinkBytes[l]
	}
	return total
}

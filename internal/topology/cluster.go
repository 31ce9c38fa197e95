package topology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"moment/internal/units"
)

// ClusterSpec describes the hierarchical inter-server network joining N
// identical machines: per-node NICs feed leaf switches whose uplinks meet
// at a spine. A single leaf with no uplink cap is the non-blocking core
// switch of the paper's §5 sketch; multiple leaves with finite uplinks
// model the oversubscribed two-tier fabrics real clusters run.
//
// All inter-node traffic is routed leaf→spine→leaf (no local turnaround at
// the leaf), so a finite uplink prices oversubscription against the full
// all-to-all traffic matrix rather than only the cross-leaf share — the
// conservative reading of a leaf/spine fabric under uniform partitioning.
type ClusterSpec struct {
	// Nodes is the cluster size.
	Nodes int
	// NICsPerNode is each node's NIC count (0 defaults to 1).
	NICsPerNode int
	// NICBW is each NIC's full-duplex bandwidth.
	NICBW units.Bandwidth
	// Leaves is the leaf-switch count (0 defaults to 1). Nodes spread
	// over leaves in contiguous blocks.
	Leaves int
	// LeafUplinkBW is each leaf's uplink into the spine, per direction;
	// <= 0 means non-blocking (unbounded uplink).
	LeafUplinkBW units.Bandwidth
	// NICAt names the attach point each node's NIC hangs off when the
	// planner models NIC↔PCIe contention (cluster.Config.NICOnGPUSocket);
	// empty picks the socket of the node's first GPU.
	NICAt string
}

// Defaults fills the zero-value conveniences.
func (c ClusterSpec) Defaults() ClusterSpec {
	if c.NICsPerNode <= 0 {
		c.NICsPerNode = 1
	}
	if c.Leaves <= 0 {
		c.Leaves = 1
	}
	return c
}

// Validate rejects malformed specs.
func (c ClusterSpec) Validate() error {
	c = c.Defaults()
	if c.Nodes <= 0 {
		return fmt.Errorf("topology: cluster with %d nodes", c.Nodes)
	}
	for _, r := range []struct {
		name string
		bw   units.Bandwidth
	}{{"NIC", c.NICBW}, {"leaf uplink", c.LeafUplinkBW}} {
		// Zero is allowed (a zero uplink is non-blocking). Anything else
		// must be a finite rate of at least 1 B/s: its GiB/s form is then
		// exact, so FormatClusterSpec writes it back unchanged.
		if v := float64(r.bw); v != 0 && !(v >= 1 && v <= math.MaxFloat64) {
			return fmt.Errorf("topology: cluster %s rate %v B/s is neither zero nor a finite rate of at least 1 B/s", r.name, v)
		}
	}
	if c.NICBW <= 0 && c.Nodes > 1 {
		return fmt.Errorf("topology: multi-node cluster needs NIC bandwidth")
	}
	if c.Leaves > c.Nodes {
		return fmt.Errorf("topology: %d leaves exceed %d nodes", c.Leaves, c.Nodes)
	}
	return nil
}

// NonBlocking reports whether the core never constrains traffic beyond the
// NICs themselves.
func (c ClusterSpec) NonBlocking() bool {
	return c.Defaults().LeafUplinkBW <= 0
}

// LeafOf returns the leaf switch node j connects to (contiguous blocks).
func (c ClusterSpec) LeafOf(node int) int {
	d := c.Defaults()
	return node * d.Leaves / d.Nodes
}

// Oversubscription is the worst-case ratio of a leaf's downlink capacity
// (its nodes' NICs) to its spine uplink; 1.0 or less means the uplink
// never binds, 0 means non-blocking.
func (c ClusterSpec) Oversubscription() float64 {
	d := c.Defaults()
	if d.NonBlocking() || d.NICBW <= 0 {
		return 0
	}
	maxNodes := 0
	counts := make([]int, d.Leaves)
	for j := 0; j < d.Nodes; j++ {
		counts[d.LeafOf(j)]++
	}
	for _, n := range counts {
		if n > maxNodes {
			maxNodes = n
		}
	}
	return float64(maxNodes*d.NICsPerNode) * float64(d.NICBW) / float64(d.LeafUplinkBW)
}

// FormatClusterSpec serializes the cluster line of the textual spec format:
//
//	cluster nodes=4 nics=1 nic=12.5GiB/s leaves=2 uplink=25GiB/s nicat=rc1
//
// Rates are written like FormatSpec's, as the shortest decimal that parses
// back to the same value, so ParseClusterLine restores c.Defaults()
// exactly. Append the line to a machine spec (FormatSpec) to describe a
// full deployment; ParseClusterFile reads the combined document.
func FormatClusterSpec(c ClusterSpec) string {
	d := c.Defaults()
	b := strconv.AppendInt([]byte("cluster nodes="), int64(d.Nodes), 10)
	b = strconv.AppendInt(append(b, " nics="...), int64(d.NICsPerNode), 10)
	b = appendGiB(append(b, " nic="...), float64(d.NICBW), "GiB/s leaves=")
	b = strconv.AppendInt(b, int64(d.Leaves), 10)
	if !d.NonBlocking() {
		b = appendGiB(append(b, " uplink="...), float64(d.LeafUplinkBW), "GiB/s")
	}
	if d.NICAt != "" {
		b = append(append(b, " nicat="...), d.NICAt...)
	}
	return string(append(b, '\n'))
}

// ParseClusterLine parses one "cluster ..." directive.
func ParseClusterLine(fields []string) (ClusterSpec, error) {
	c := ClusterSpec{}
	if len(fields) == 0 || fields[0] != "cluster" {
		return c, fmt.Errorf("topology: not a cluster line")
	}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return c, fmt.Errorf("topology: cluster field %q wants key=value", f)
		}
		var err error
		switch key {
		case "nodes":
			c.Nodes, err = strconv.Atoi(val)
		case "nics":
			c.NICsPerNode, err = strconv.Atoi(val)
		case "nic":
			c.NICBW, err = units.ParseBandwidth(val)
		case "leaves":
			c.Leaves, err = strconv.Atoi(val)
		case "uplink":
			c.LeafUplinkBW, err = units.ParseBandwidth(val)
		case "nicat":
			c.NICAt = val
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return c, fmt.Errorf("topology: cluster %s: %w", key, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// ParseClusterFile reads a combined deployment spec: the machine grammar of
// ParseSpec plus one "cluster ..." line. The cluster line may appear
// anywhere; a document without one returns a nil ClusterSpec.
func ParseClusterFile(r io.Reader) (*Machine, *ClusterSpec, error) {
	var machineLines strings.Builder
	var cs *ClusterSpec
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) > 0 && fields[0] == "cluster" {
			if cs != nil {
				return nil, nil, fmt.Errorf("topology: spec line %d: duplicate cluster line", lineNo)
			}
			c, err := ParseClusterLine(fields)
			if err != nil {
				return nil, nil, fmt.Errorf("topology: spec line %d: %w", lineNo, err)
			}
			cs = &c
			continue
		}
		machineLines.WriteString(line)
		machineLines.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("topology: reading spec: %w", err)
	}
	m, err := ParseSpec(strings.NewReader(machineLines.String()))
	if err != nil {
		return nil, nil, err
	}
	return m, cs, nil
}

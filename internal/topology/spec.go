package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"moment/internal/units"
)

// FormatSpec serializes a machine to the textual spec format, the offline
// stand-in for live lspci/dmidecode extraction. The format is line-based:
//
//	machine B
//	qpi 20GiB/s
//	dram 256GiB 36GiB/s
//	gpus 4 mem=40GiB cachefrac=0.15
//	ssds 8 cap=3932.1599999992177GiB bw=6GiB/s iops=930000
//	pcie x16=20GiB/s x4=7GiB/s
//	nodes 1 nic=0GiB/s
//	point rc0 root bays=0 gpuslots=1
//	point sw0 switch parent=rc0 uplink=20GiB/s bays=2 gpuslots=4
//	nvlink 0 1 bw=50GiB/s
//
// Every number is the shortest decimal that parses back to the same value,
// so ParseSpec(FormatSpec(m)) restores every field the format carries
// exactly and formats to the same text again. momentd's plan cache keys on
// this text: two machines share a key only if they plan alike.
func FormatSpec(m *Machine) string {
	// A catalog machine's text fits the stack buffer, so the returned
	// string is the only allocation.
	var buf [1024]byte
	b := append(buf[:0], "machine "...)
	b = append(b, m.Name...)
	b = append(b, "\nqpi "...)
	b = appendGiB(b, float64(m.QPIBW), "GiB/s\ndram ")
	b = appendGiB(b, float64(m.DRAMPerSocket), "GiB ")
	b = appendGiB(b, float64(m.DRAMBW), "GiB/s\ngpus ")
	b = strconv.AppendInt(b, int64(m.NumGPUs), 10)
	b = appendGiB(append(b, " mem="...), float64(m.GPUMemory), "GiB cachefrac=")
	b = strconv.AppendFloat(b, m.GPUCacheFrac, 'f', -1, 64)
	b = strconv.AppendInt(append(b, "\nssds "...), int64(m.NumSSDs), 10)
	b = appendGiB(append(b, " cap="...), float64(m.SSDCapacity), "GiB bw=")
	b = appendGiB(b, float64(m.SSDBW), "GiB/s iops=")
	b = strconv.AppendFloat(b, m.SSDIOPS, 'f', -1, 64)
	b = appendGiB(append(b, "\npcie x16="...), float64(m.PCIeX16), "GiB/s x4=")
	b = appendGiB(b, float64(m.PCIeX4), "GiB/s\nnodes ")
	b = strconv.AppendInt(b, int64(m.NumNodes), 10)
	b = appendGiB(append(b, " nic="...), float64(m.NICBW), "GiB/s\n")
	for _, p := range m.Points {
		switch p.Kind {
		case RootComplex:
			b = append(append(append(b, "point "...), p.ID...), " root"...)
		case Switch:
			b = append(append(append(b, "point "...), p.ID...), " switch parent="...)
			b = appendGiB(append(append(b, p.Parent...), " uplink="...), float64(p.UplinkBW), "GiB/s")
		default:
			continue
		}
		b = strconv.AppendInt(append(b, " bays="...), int64(p.Bays), 10)
		b = strconv.AppendInt(append(b, " gpuslots="...), int64(p.GPUSlots), 10)
		b = append(b, '\n')
	}
	for _, nv := range m.NVLinks {
		b = strconv.AppendInt(append(b, "nvlink "...), int64(nv.A), 10)
		b = strconv.AppendInt(append(b, ' '), int64(nv.B), 10)
		b = appendGiB(append(b, " bw="...), float64(m.NVLinkBW), "GiB/s\n")
	}
	return string(b)
}

// appendGiB appends v, a byte count or a rate in bytes per second, in GiB
// as the shortest decimal that parses back to v, then suffix. It writes no
// exponent, because units.ParseBytes reads none.
func appendGiB(b []byte, v float64, suffix string) []byte {
	b = strconv.AppendFloat(b, v/float64(units.GiB), 'f', -1, 64)
	return append(b, suffix...)
}

// ParseSpec reads a machine spec produced by FormatSpec (or hand-written).
// Unknown directives are rejected so typos surface early.
func ParseSpec(r io.Reader) (*Machine, error) {
	m := &Machine{NumNodes: 1}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := parseSpecLine(m, fields); err != nil {
			return nil, fmt.Errorf("topology: spec line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading spec: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func parseSpecLine(m *Machine, fields []string) error {
	kv := func(s, key string) (string, bool) {
		if strings.HasPrefix(s, key+"=") {
			return s[len(key)+1:], true
		}
		return "", false
	}
	switch fields[0] {
	case "machine":
		if len(fields) != 2 {
			return fmt.Errorf("machine wants one name")
		}
		m.Name = fields[1]
	case "qpi":
		if len(fields) != 2 {
			return fmt.Errorf("qpi wants one rate")
		}
		bw, err := units.ParseBandwidth(fields[1])
		if err != nil {
			return err
		}
		m.QPIBW = bw
	case "dram":
		if len(fields) != 3 {
			return fmt.Errorf("dram wants size and rate")
		}
		sz, err := units.ParseBytes(fields[1])
		if err != nil {
			return err
		}
		bw, err := units.ParseBandwidth(fields[2])
		if err != nil {
			return err
		}
		m.DRAMPerSocket, m.DRAMBW = sz, bw
	case "gpus":
		if len(fields) < 2 {
			return fmt.Errorf("gpus wants a count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		m.NumGPUs = n
		for _, f := range fields[2:] {
			if v, ok := kv(f, "mem"); ok {
				if m.GPUMemory, err = units.ParseBytes(v); err != nil {
					return err
				}
			} else if v, ok := kv(f, "cachefrac"); ok {
				if m.GPUCacheFrac, err = strconv.ParseFloat(v, 64); err != nil {
					return err
				}
			} else {
				return fmt.Errorf("gpus: unknown field %q", f)
			}
		}
	case "ssds":
		if len(fields) < 2 {
			return fmt.Errorf("ssds wants a count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		m.NumSSDs = n
		for _, f := range fields[2:] {
			if v, ok := kv(f, "cap"); ok {
				if m.SSDCapacity, err = units.ParseBytes(v); err != nil {
					return err
				}
			} else if v, ok := kv(f, "bw"); ok {
				if m.SSDBW, err = units.ParseBandwidth(v); err != nil {
					return err
				}
			} else if v, ok := kv(f, "iops"); ok {
				if m.SSDIOPS, err = strconv.ParseFloat(v, 64); err != nil {
					return err
				}
			} else {
				return fmt.Errorf("ssds: unknown field %q", f)
			}
		}
	case "pcie":
		for _, f := range fields[1:] {
			if v, ok := kv(f, "x16"); ok {
				bw, err := units.ParseBandwidth(v)
				if err != nil {
					return err
				}
				m.PCIeX16 = bw
			} else if v, ok := kv(f, "x4"); ok {
				bw, err := units.ParseBandwidth(v)
				if err != nil {
					return err
				}
				m.PCIeX4 = bw
			} else {
				return fmt.Errorf("pcie: unknown field %q", f)
			}
		}
	case "nodes":
		if len(fields) < 2 {
			return fmt.Errorf("nodes wants a count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		m.NumNodes = n
		for _, f := range fields[2:] {
			if v, ok := kv(f, "nic"); ok {
				if m.NICBW, err = units.ParseBandwidth(v); err != nil {
					return err
				}
			} else {
				return fmt.Errorf("nodes: unknown field %q", f)
			}
		}
	case "point":
		if len(fields) < 3 {
			return fmt.Errorf("point wants id and kind")
		}
		p := AttachPoint{ID: fields[1]}
		switch fields[2] {
		case "root":
			p.Kind = RootComplex
		case "switch":
			p.Kind = Switch
		default:
			return fmt.Errorf("point: unknown kind %q", fields[2])
		}
		for _, f := range fields[3:] {
			if v, ok := kv(f, "parent"); ok {
				p.Parent = v
			} else if v, ok := kv(f, "uplink"); ok {
				bw, err := units.ParseBandwidth(v)
				if err != nil {
					return err
				}
				p.UplinkBW = bw
			} else if v, ok := kv(f, "bays"); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				p.Bays = n
			} else if v, ok := kv(f, "gpuslots"); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				p.GPUSlots = n
			} else {
				return fmt.Errorf("point: unknown field %q", f)
			}
		}
		m.Points = append(m.Points, p)
	case "nvlink":
		if len(fields) < 3 {
			return fmt.Errorf("nvlink wants two gpu indices")
		}
		a, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		b, err := strconv.Atoi(fields[2])
		if err != nil {
			return err
		}
		for _, f := range fields[3:] {
			if v, ok := kv(f, "bw"); ok {
				bw, err := units.ParseBandwidth(v)
				if err != nil {
					return err
				}
				m.NVLinkBW = bw
			} else {
				return fmt.Errorf("nvlink: unknown field %q", f)
			}
		}
		m.NVLinks = append(m.NVLinks, NVLinkPair{A: a, B: b})
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

package topology

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// withLine returns spec with its first line starting with prefix replaced
// by line.
func withLine(spec, prefix, line string) string {
	lines := strings.Split(spec, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = line
			break
		}
	}
	return strings.Join(lines, "\n")
}

// TestFormatSpecMachineB pins the text of one machine: integers where the
// value is whole, and the shortest exact decimal where it is not.
func TestFormatSpecMachineB(t *testing.T) {
	want := `machine B
qpi 20GiB/s
dram 256GiB 36GiB/s
gpus 4 mem=40GiB cachefrac=0.15
ssds 8 cap=3932.1599999992177GiB bw=6GiB/s iops=930000
pcie x16=20GiB/s x4=7GiB/s
nodes 1 nic=0GiB/s
point rc0 root bays=0 gpuslots=1
point rc1 root bays=8 gpuslots=1
point sw0 switch parent=rc0 uplink=20GiB/s bays=2 gpuslots=4
point sw1 switch parent=sw0 uplink=20GiB/s bays=2 gpuslots=4
nvlink 0 1 bw=50GiB/s
`
	if got := FormatSpec(MachineB().WithNVLink(NVLinkBridgeBW, NVLinkPair{0, 1})); got != want {
		t.Errorf("FormatSpec(B) =\n%s\nwant\n%s", got, want)
	}
}

// TestFormatSpecAllocs: momentd formats the machine of every request,
// plan-cache hits included, to fingerprint it.
func TestFormatSpecAllocs(t *testing.T) {
	for _, m := range MachineCatalog() {
		if n := testing.AllocsPerRun(100, func() { _ = FormatSpec(m) }); n > 2 {
			t.Errorf("%s: FormatSpec makes %v allocations, want at most 2", m.Name, n)
		}
	}
}

// TestValidateDeepCascade: momentd validates the spec of every request
// before admission control, so validation must stay linear. A 5,000-deep
// switch cascade (about 200 KiB of spec text) took minutes when every
// switch walked the tree to its root on its own.
func TestValidateDeepCascade(t *testing.T) {
	const n = 5000
	var b strings.Builder
	b.WriteString(FormatSpec(MachineC()))
	parent := "rc0"
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "point sw%d switch parent=%s uplink=1GiB/s\n", i, parent)
		parent = fmt.Sprintf("sw%d", i)
	}
	start := time.Now()
	m, err := ParseSpec(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("a %d-deep cascade took %v to parse", n, el)
	}
	if d, err := m.Depth(parent); err != nil || d != n-1 {
		t.Errorf("depth of %s = %d, %v; want %d", parent, d, err, n-1)
	}
	// Hang the top of the cascade off its bottom: no switch reaches a root.
	cycle := strings.Replace(b.String(), "parent=rc0", "parent="+parent, 1)
	if _, err := ParseSpec(strings.NewReader(cycle)); err == nil {
		t.Error("a cascade closed into a cycle parsed")
	}
}

// TestParseSpecRejectsBadMemory: a GPU memory or DRAM size that is
// negative, zero DRAM, or a size past the int64 range of bytes (which used
// to wrap to -2^63 B and format back as a negative size) is a parse error.
func TestParseSpecRejectsBadMemory(t *testing.T) {
	b := FormatSpec(MachineB())
	for _, c := range []struct{ prefix, line string }{
		{"gpus", "gpus 4 mem=-40GiB cachefrac=0.15"},
		{"gpus", "gpus 4 mem=9223372036854775807 cachefrac=0.15"},
		{"gpus", "gpus 4 mem=-8589934592GiB cachefrac=0.15"},
		{"dram", "dram 99999999999999999999T 36GiB/s"},
		{"dram", "dram 0GiB 36GiB/s"},
		{"ssds", "ssds 8 cap=99999999999999999999T bw=6GiB/s iops=930000"},
	} {
		if _, err := ParseSpec(strings.NewReader(withLine(b, c.prefix, c.line))); err == nil {
			t.Errorf("%q parsed", c.line)
		}
	}
	if _, err := ParseSpec(strings.NewReader(withLine(b, "gpus", "gpus 4 mem=0GiB cachefrac=0.15"))); err != nil {
		t.Errorf("GPUs without memory: %v", err)
	}
}

// FuzzParseSpec: ParseSpec never panics, and whatever it accepts formats
// to text that parses back to the same machine and formats to the same
// text again. momentd keys its plan cache on that text.
func FuzzParseSpec(f *testing.F) {
	for _, m := range MachineCatalog() {
		f.Add(FormatSpec(m))
	}
	f.Add(FormatSpec(MachineB().WithNVLink(NVLinkBridgeBW, NVLinkPair{0, 1}, NVLinkPair{2, 3})))
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseSpec(strings.NewReader(spec))
		if err != nil {
			return
		}
		text := FormatSpec(m)
		back, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			t.Fatalf("FormatSpec wrote a spec ParseSpec rejects: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("parse∘format changed the machine:\n got %+v\nwant %+v\n%s", back, m, text)
		}
		if again := FormatSpec(back); again != text {
			t.Fatalf("FormatSpec is not a fixpoint:\n%s\nthen\n%s", text, again)
		}
	})
}

package placement

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"moment/internal/flownet"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// decodePlacement turns fuzz bytes into a slot-feasible placement on m:
// each device is steered by one byte to an attach point, falling forward
// cyclically when the chosen point's slots are full. Every byte string
// decodes to a valid placement, so the fuzzer explores the placement space
// rather than the validator's error paths.
func decodePlacement(m *topology.Machine, data []byte) *topology.Placement {
	gpuFree := make([]int, len(m.Points))
	ssdFree := make([]int, len(m.Points))
	for i, pt := range m.Points {
		gpuFree[i] = pt.GPUSlots
		ssdFree[i] = pt.Bays
	}
	at := func(free []int, b byte) int {
		i := int(b) % len(m.Points)
		for free[i] == 0 {
			i = (i + 1) % len(m.Points)
		}
		free[i]--
		return i
	}
	byteAt := func(k int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[k%len(data)]
	}
	p := &topology.Placement{Name: "fuzz"}
	for g := 0; g < m.NumGPUs; g++ {
		p.GPUAt = append(p.GPUAt, m.Points[at(gpuFree, byteAt(g))].ID)
	}
	for s := 0; s < m.NumSSDs; s++ {
		p.SSDAt = append(p.SSDAt, m.Points[at(ssdFree, byteAt(m.NumGPUs+s))].ID)
	}
	return p
}

// countSignature is the physical content of a placement independent of
// subtree naming: the sorted multiset of per-point (kind, uplink, slots,
// placed-GPU, placed-SSD) tuples. Two placements the canonical key calls
// equal must agree on it — a canonical key that merged placements with
// different signatures would silently discard a genuinely distinct
// hardware configuration from the search space.
func countSignature(m *topology.Machine, p *topology.Placement) string {
	gpus, ssds := p.Counts()
	var parts []string
	for _, pt := range m.Points {
		parts = append(parts, fmt.Sprintf("%d/%v/%d/%d:g%d,s%d",
			pt.Kind, pt.UplinkBW, pt.Bays, pt.GPUSlots, gpus[pt.ID], ssds[pt.ID]))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

func FuzzDedupe(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, []byte{3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07"), []byte("\x07\x06\x05\x04\x03\x02\x01\x00"))
	f.Add([]byte{255, 254, 253}, []byte{128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m := topology.MachineA()
		pa := decodePlacement(m, a)
		pb := decodePlacement(m, b)
		keyA, err := CanonicalKey(m, pa)
		if err != nil {
			t.Fatalf("decoded placement invalid: %v", err)
		}
		keyB, err := CanonicalKey(m, pb)
		if err != nil {
			t.Fatalf("decoded placement invalid: %v", err)
		}
		// Canonical equality must never merge physically different
		// placements. (Symmetric subtrees may give different signatures the
		// same key only on machines with identical subtrees, which is
		// exactly what the sorted signature tolerates: MachineA's sw0/sw1
		// are identical, so sorting absorbs the swap.)
		if keyA == keyB && countSignature(m, pa) != countSignature(m, pb) {
			t.Fatalf("key %q merges placements with different count vectors:\n%v\n%v", keyA, pa, pb)
		}
		out, err := Dedupe(m, []*topology.Placement{pa, pb, pa})
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if keyA != keyB {
			want = 2
		}
		if len(out) != want {
			t.Fatalf("dedupe kept %d of [a b a], want %d (keys equal: %v)", len(out), want, keyA == keyB)
		}
		if out[0] != pa {
			t.Fatal("dedupe must keep the first representative")
		}
		// Idempotence: a second pass changes nothing.
		again, err := Dedupe(m, out)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(out) {
			t.Fatalf("dedupe not idempotent: %d -> %d", len(out), len(again))
		}
		for i := range again {
			if again[i] != out[i] {
				t.Fatal("dedupe reordered an already-deduped list")
			}
		}
	})
}

// fuzzUplinks are the switch uplink rates decodeForest draws from: two
// generations plus rates within 0.0004 GiB/s and within one ulp of the
// first, which an approximate encoding would merge with it.
var fuzzUplinks = []units.Bandwidth{
	topology.PCIe4x16,
	topology.PCIe4x16 + units.GiBps(0.0004),
	units.Bandwidth(math.Nextafter(float64(topology.PCIe4x16), math.Inf(1))),
	topology.PCIe4x4,
}

// decodeForest turns fuzz bytes into a valid machine: 1-3 root complexes,
// up to three switches each hanging off an earlier point (so switches
// nest), random bays and GPU slots, uplinks from fuzzUplinks, 1-2 GPUs and
// 0-2 SSDs. Missing bytes read as zero, so every input decodes.
func decodeForest(data []byte) *topology.Machine {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m := topology.MachineA()
	m.Name = "fuzz"
	m.Points = nil
	roots, switches := 1+next()%3, next()%4
	slots, bays := 0, 0
	for i := 0; i < roots+switches; i++ {
		pt := topology.AttachPoint{
			ID:       "rc" + strconv.Itoa(i),
			Kind:     topology.RootComplex,
			Bays:     next() % 3,
			GPUSlots: next() % 3,
		}
		if i >= roots {
			pt.ID = "sw" + strconv.Itoa(i-roots)
			pt.Kind = topology.Switch
			pt.Parent = m.Points[next()%i].ID
			pt.UplinkBW = fuzzUplinks[next()%len(fuzzUplinks)]
		}
		slots += pt.GPUSlots
		bays += pt.Bays
		m.Points = append(m.Points, pt)
	}
	if slots == 0 {
		m.Points[0].GPUSlots, slots = 1, 1
	}
	m.NumGPUs = 1 + next()%min(2, slots)
	m.NumSSDs = next() % (min(2, bays) + 1)
	return m
}

// forestDemand is a demand every candidate on m can route: each GPU draws
// 1 GiB, served by the root complexes' DRAM and, when m has SSDs, half by
// the SSD tier.
func forestDemand(m *topology.Machine) *flownet.Demand {
	d := &flownet.Demand{PerGPU: make([]float64, m.NumGPUs), DRAM: map[string]float64{}}
	total := 0.0
	for g := range d.PerGPU {
		d.PerGPU[g] = gb
		total += gb
	}
	if m.NumSSDs > 0 {
		d.SSDTotal = total / 2
		total /= 2
	}
	rcs := m.RootComplexes()
	for _, rc := range rcs {
		d.DRAM[rc] = total / float64(len(rcs))
	}
	return d
}

// FuzzSearchClasses holds Search's integer symmetry classes to the
// text-keyed oracle on random attach-point forests: the candidates Search
// scores, names and placements included, in enumeration order, must be
// exactly Enumerate → Dedupe's, and a score cache must hold one
// CanonicalKey per class. The committed seeds are mirrored sockets with
// equal, 0.0004 GiB/s-apart and one-ulp-apart switch uplinks, sibling
// switches under a switch, and three sockets of which two match.
func FuzzSearchClasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeForest(data)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded machine invalid: %v", err)
		}
		all, err := Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := Dedupe(m, all)
		if err != nil {
			t.Fatal(err)
		}
		cache := scorecache.NewScores(1 << 12)
		res, err := Search(m, forestDemand(m), Options{KeepScores: true, Cache: cache, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Enumerated != len(all) || res.Evaluated != len(kept) {
			t.Fatalf("Search enumerated %d and evaluated %d, oracle %d and %d",
				res.Enumerated, res.Evaluated, len(all), len(kept))
		}
		if cache.Len() != len(kept) {
			t.Fatalf("cache holds %d keys for %d classes", cache.Len(), len(kept))
		}
		seq := func(p *topology.Placement) int {
			i, err := strconv.Atoi(strings.TrimPrefix(p.Name, "cand"))
			if err != nil {
				t.Fatalf("candidate name %q", p.Name)
			}
			return i
		}
		got := make([]*topology.Placement, len(res.Scores))
		for i, s := range res.Scores {
			got[i] = s.Placement
		}
		sort.Slice(got, func(a, b int) bool { return seq(got[a]) < seq(got[b]) })
		for i, p := range got {
			w := kept[i]
			if p.Name != w.Name || fmt.Sprint(p.GPUAt, p.SSDAt) != fmt.Sprint(w.GPUAt, w.SSDAt) {
				t.Fatalf("kept[%d] = %v, oracle %v", i, p, w)
			}
		}
	})
}

package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestExplainDeterministicUnderShuffle(t *testing.T) {
	steps := []ExplainStep{
		{Seq: 2, Stage: "prune", Subject: "ring-4", Reason: "isomorphic-duplicate"},
		{Seq: 0, Stage: "score", Subject: "mesh-2x2", Value: 1.25},
		{Seq: 1, Stage: "score", Subject: "ring-2", Value: 3.5},
		{Seq: SeqSummary, Stage: "search", Reason: "enumerated", Count: 3},
		{Seq: 0, Stage: "bisect", Subject: "mesh-2x2", Reason: "probes", Count: 7},
		{Seq: SeqSummary, Stage: "result", Subject: "mesh-2x2", Value: 1.25},
	}
	rng := rand.New(rand.NewSource(1))
	var first string
	for trial := 0; trial < 5; trial++ {
		e := NewExplain()
		perm := rng.Perm(len(steps))
		for _, i := range perm {
			e.Add(steps[i])
		}
		got := e.Render()
		if trial == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("render differs across insertion orders:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, "[  sum] result mesh-2x2 value=1.25") {
		t.Fatalf("summary line malformed:\n%s", first)
	}
	if !strings.Contains(first, "[    0] bisect mesh-2x2 reason=probes count=7") {
		t.Fatalf("bisect line malformed:\n%s", first)
	}
}

func TestExplainStepLimitAndDropped(t *testing.T) {
	e := NewExplainLimit(4, 0)
	for i := 0; i < 10; i++ {
		e.Add(ExplainStep{Seq: i, Stage: "score"})
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	if e.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", e.Dropped())
	}
	if !strings.Contains(e.Render(), "truncated dropped=6") {
		t.Fatalf("render missing truncation marker:\n%s", e.Render())
	}
}

// TestExplainTruncationKeepsSmallest overfills a trail in several orders:
// it must keep the same limit smallest steps every time, and summary steps
// must survive however late they arrive.
func TestExplainTruncationKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var first string
	for trial := 0; trial < 5; trial++ {
		e := NewExplainLimit(4, 0)
		for _, i := range rng.Perm(10) {
			e.Add(ExplainStep{Seq: i, Stage: "score", Subject: "c", Value: float64(i)})
			e.Add(ExplainStep{Seq: i, Stage: "bisect", Subject: "c", Reason: "probes", Count: i})
		}
		e.Add(ExplainStep{Seq: SeqSummary, Stage: "result", Subject: "c0", Value: 1})
		e.Add(ExplainStep{Seq: SeqSummary, Stage: "plan", Reason: "epoch", Value: 2})
		if e.Len() != 6 || e.Dropped() != 16 {
			t.Fatalf("Len %d, Dropped %d; want 6 and 16", e.Len(), e.Dropped())
		}
		steps := e.Steps()
		for i, s := range steps[:4] {
			if s.Seq != i/2 {
				t.Fatalf("kept step %d has Seq %d, want %d: %+v", i, s.Seq, i/2, steps)
			}
		}
		got := e.Render()
		if !strings.Contains(got, "[  sum] result c0") || !strings.Contains(got, "[  sum] plan reason=epoch") {
			t.Fatalf("summaries lost from a full trail:\n%s", got)
		}
		if trial == 0 {
			first = got
		} else if got != first {
			t.Fatalf("truncated render depends on insertion order:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestExplainReasonCap(t *testing.T) {
	e := NewExplainLimit(100, 2)
	e.Add(ExplainStep{Stage: "prune", Reason: "a"})
	e.Add(ExplainStep{Stage: "prune", Reason: "b"})
	e.Add(ExplainStep{Stage: "prune", Reason: "c"})
	reasons := map[string]bool{}
	for _, s := range e.Steps() {
		reasons[s.Reason] = true
	}
	if !reasons["a"] || !reasons["b"] || !reasons[Overflow] || reasons["c"] {
		t.Fatalf("reason capping wrong: %v", reasons)
	}
}

func TestExplainWriteJSON(t *testing.T) {
	e := NewExplain()
	e.Add(ExplainStep{Seq: 0, Stage: "score", Subject: "ring-2", Value: 2.5})
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped int           `json:"dropped"`
		Steps   []ExplainStep `json:"steps"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(dump.Steps) != 1 || dump.Steps[0].Subject != "ring-2" {
		t.Fatalf("dump = %+v", dump)
	}

	// Nil trail still writes a well-formed empty dump.
	buf.Reset()
	var nile *Explain
	if err := nile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"steps": []`) {
		t.Fatalf("nil dump = %s", buf.String())
	}
}

func TestNilExplainNoops(t *testing.T) {
	var e *Explain
	e.Add(ExplainStep{Stage: "score"})
	if e.Len() != 0 || e.Dropped() != 0 || e.Steps() != nil || e.Render() != "" {
		t.Fatal("nil Explain should be empty")
	}
}

func TestDisabledExplainZeroAllocs(t *testing.T) {
	var e *Explain
	allocs := testing.AllocsPerRun(100, func() {
		e.Add(ExplainStep{Seq: 1, Stage: "score", Subject: "c", Reason: "r", Value: 1, Count: 2})
	})
	if allocs != 0 {
		t.Fatalf("nil Explain.Add allocates %v/op, want 0", allocs)
	}
}

func TestFmtFloatShortestRoundTrip(t *testing.T) {
	cases := map[float64]string{
		1.25:   "1.25",
		0.1:    "0.1",
		3:      "3",
		1e21:   "1e+21",
		0.0001: "0.0001",
	}
	for v, want := range cases {
		if got := fmtFloat(v); got != want {
			t.Fatalf("fmtFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func BenchmarkExplainAdd(b *testing.B) {
	e := NewExplainLimit(1<<20, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(ExplainStep{Seq: i, Stage: "score", Subject: "c", Value: 1})
	}
}

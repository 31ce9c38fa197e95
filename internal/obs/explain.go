package obs

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Explain is a per-request provenance trail: the planner appends one step
// per decision it makes — candidates enumerated and pruned (with reasons),
// score-cache and warm-start hits, bisector work, knapsack fills, the final
// score breakdown — and the caller renders or serializes the collected
// trail. It answers "why this plan" the way the flight recorder answers
// "what just happened": per-decision rather than aggregate.
//
// A nil *Explain ignores Add without allocating, so planner hot paths
// record steps unconditionally. Rendering is deterministic: steps sort on
// (Seq, Stage, Subject, Reason, Count, Value) and floats format with
// strconv's shortest round-trip form, so a fixed request renders
// byte-identically across runs — the property the golden tests and the
// /v1/explain endpoint rely on. A full trail keeps the steps that sort
// first, whatever order concurrent recorders add them in, and run-level
// summary steps never count against the bound.
type Explain struct {
	mu      sync.Mutex
	limit   int
	reasons *LabelCap
	steps   keptSteps     // per-candidate steps; a max-heap once full
	summary []ExplainStep // Seq == SeqSummary steps, kept unbounded
	dropped int
}

// ExplainStep is one recorded decision.
type ExplainStep struct {
	// Seq orders steps: per-candidate steps carry the candidate's
	// enumeration index, run-level summary steps carry SeqSummary so they
	// sort last.
	Seq int `json:"seq"`
	// Stage names the decision point: "prune", "score", "bisect",
	// "restart", "move", "replan", "ddak", "search", "result", "plan".
	Stage   string  `json:"stage"`
	Subject string  `json:"subject,omitempty"` // candidate/bin/device name
	Reason  string  `json:"reason,omitempty"`  // why, capped cardinality
	Value   float64 `json:"value,omitempty"`   // stage-specific scalar
	Count   int     `json:"count,omitempty"`   // stage-specific count
}

// SeqSummary is the Seq for run-level summary steps; larger than any
// enumeration index, so summaries render after per-candidate steps.
const SeqSummary = 1 << 30

// NewExplain returns a trail holding up to 4096 per-candidate steps with
// reason cardinality capped at 64.
func NewExplain() *Explain { return NewExplainLimit(0, 0) }

// NewExplainLimit is NewExplain with explicit bounds (<= 0 picks the
// defaults).
func NewExplainLimit(maxSteps, reasonCap int) *Explain {
	if maxSteps <= 0 {
		maxSteps = 4096
	}
	if reasonCap <= 0 {
		reasonCap = 64
	}
	return &Explain{limit: maxSteps, reasons: NewLabelCap(reasonCap)}
}

// Add records one step; reasons pass through the trail's LabelCap. Summary
// steps (Seq == SeqSummary) are always kept. Once the trail holds its limit
// of other steps, each further one is counted as dropped and evicts the
// kept step that sorts last if it sorts before it, so a truncated trail
// holds the limit smallest steps in canonical order regardless of arrival
// order. No-op (and alloc-free) on a nil trail.
func (e *Explain) Add(step ExplainStep) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	step.Reason = e.reasons.Get(step.Reason)
	switch {
	case step.Seq == SeqSummary:
		e.summary = append(e.summary, step)
	case len(e.steps) < e.limit:
		e.steps = append(e.steps, step)
		if len(e.steps) == e.limit {
			heap.Init(&e.steps)
		}
	default:
		e.dropped++
		if len(e.steps) > 0 && stepLess(step, e.steps[0]) {
			e.steps[0] = step
			heap.Fix(&e.steps, 0)
		}
	}
}

// keptSteps is a max-heap in the trail's canonical order: the root is the
// step a full trail evicts first.
type keptSteps []ExplainStep

func (h keptSteps) Len() int           { return len(h) }
func (h keptSteps) Less(i, j int) bool { return stepLess(h[j], h[i]) }
func (h keptSteps) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *keptSteps) Push(x any)        { *h = append(*h, x.(ExplainStep)) }
func (h *keptSteps) Pop() any {
	last := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return last
}

// stepLess is the trail's canonical order: (Seq, Stage, Subject, Reason,
// Count, Value).
func stepLess(a, b ExplainStep) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Reason != b.Reason {
		return a.Reason < b.Reason
	}
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Value < b.Value
}

// Len reports the number of recorded steps, summaries included.
func (e *Explain) Len() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.steps) + len(e.summary)
}

// Dropped reports steps discarded past the limit.
func (e *Explain) Dropped() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Steps returns the trail in deterministic order: (Seq, Stage, Subject,
// Reason, Count, Value). Concurrent recorders (the search's scoring
// workers) add in arrival order, so the sort — not insertion — defines the
// canonical order.
func (e *Explain) Steps() []ExplainStep {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]ExplainStep, 0, len(e.steps)+len(e.summary))
	out = append(append(out, e.steps...), e.summary...)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return stepLess(out[i], out[j]) })
	return out
}

// fmtFloat renders v in the shortest form that round-trips — the
// deterministic float formatting every explain surface shares.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render writes the trail as deterministic plain text, one step per line.
func (e *Explain) Render() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range e.Steps() {
		if s.Seq == SeqSummary {
			fmt.Fprintf(&b, "[  sum] %s", s.Stage)
		} else {
			fmt.Fprintf(&b, "[%5d] %s", s.Seq, s.Stage)
		}
		if s.Subject != "" {
			b.WriteByte(' ')
			b.WriteString(s.Subject)
		}
		if s.Reason != "" {
			b.WriteString(" reason=")
			b.WriteString(s.Reason)
		}
		if s.Count != 0 {
			b.WriteString(" count=")
			b.WriteString(strconv.Itoa(s.Count))
		}
		if s.Value != 0 {
			b.WriteString(" value=")
			b.WriteString(fmtFloat(s.Value))
		}
		b.WriteByte('\n')
	}
	if d := e.Dropped(); d > 0 {
		fmt.Fprintf(&b, "[  sum] truncated dropped=%d\n", d)
	}
	return b.String()
}

// explainDumpJSON is the wire form of a trail.
type explainDumpJSON struct {
	Dropped int           `json:"dropped"`
	Steps   []ExplainStep `json:"steps"`
}

// WriteJSON dumps the trail as JSON in the same deterministic order Render
// uses.
func (e *Explain) WriteJSON(w io.Writer) error {
	dump := explainDumpJSON{Steps: []ExplainStep{}}
	if e != nil {
		dump.Dropped = e.Dropped()
		dump.Steps = e.Steps()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

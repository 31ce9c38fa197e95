package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one operation share Op; Parent is the index of the enclosing span, -1
// for an operation span or a replay (replays run outside the operation).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced phase; write saves them
// when the run ends. It is safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	// spans are stored without pointers, their names as indices into
	// names, so the garbage collector never scans them.
	spans []rawSpan
	names []string
	ids   map[string]int32
}

type rawSpan struct {
	name, op, parent int32
	start, end       int64
}

// tracerCap is the span capacity a tracer reserves up front, enough for a
// 60-second traced serve-hits run: growing the slice mid-run would copy
// every span inside whichever operation's span is open at the time.
const tracerCap = 1 << 19

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]rawSpan, 0, tracerCap), ids: map[string]int32{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.ids[name]
	if !ok {
		n = int32(len(t.names))
		t.ids[name] = n
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, rawSpan{name: n, op: int32(op), parent: int32(parent), start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// call runs f inside a span named name under parent.
func (t *tracer) call(name string, op, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id)
	return err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	for i, r := range t.spans {
		out[i] = span{Name: t.names[r.name], Op: int(r.op), Parent: int(r.parent), Start: r.start, End: r.end}
	}
	return out
}

// children maps each span index to its children's intervals.
func children(spans []span) map[int][][2]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of ivs clipped to s.
func covered(s span, ivs [][2]int64) time.Duration {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], s.Start), min(iv[1], s.End)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, reach int64
	reach = s.Start
	for _, iv := range clipped {
		a := max(iv[0], reach)
		if iv[1] > a {
			total += iv[1] - a
			reach = iv[1]
		}
	}
	return time.Duration(total)
}

// coverage returns, for each operation span (a top-level span whose
// children are the public calls), the share of its wall time those
// children cover.
func coverage(spans []span, opName string) []float64 {
	kids := children(spans)
	var out []float64
	for i, s := range spans {
		if s.Name != opName || s.Parent >= 0 {
			continue
		}
		d := s.End - s.Start
		if d <= 0 {
			out = append(out, 1)
			continue
		}
		out = append(out, float64(covered(s, kids[i]))/float64(d))
	}
	return out
}

// write saves the spans as one JSON document under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

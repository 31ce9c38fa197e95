package experiments

import (
	"math"
	"testing"
)

// TestClusterBenchRecord pins the multi-node acceptance differential on
// the 4-node reference: the flow-planned cluster beats DistDGL, agrees
// with the analytical composition, and fetches remote bytes at r=0.25.
func TestClusterBenchRecord(t *testing.T) {
	r, err := clusterRun(4)
	if err != nil {
		t.Fatal(err)
	}
	checkClusterAcceptance(t, r)
	if r.remoteGiB <= 0 {
		t.Errorf("remote GiB = %g, want > 0 at r=%g", r.remoteGiB, clusterBenchReplication)
	}
	if _, err := clusterRun(0); err == nil {
		t.Error("a 0-node cluster planned, want error")
	}
}

// TestClusterBenchDeterministic: two fresh runs agree bit for bit.
func TestClusterBenchDeterministic(t *testing.T) {
	a, err := clusterRun(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clusterRun(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestClusterVsDistDGLTable(t *testing.T) {
	tbl, err := ClusterVsDistDGL()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3 (2/4/8 nodes)", len(tbl.Rows))
	}
	var prev float64 = math.Inf(1)
	for _, r := range tbl.Rows {
		if len(r.Cells) != len(tbl.Columns) {
			t.Fatalf("row %q has %d cells, want %d", r.Label, len(r.Cells), len(tbl.Columns))
		}
		flow := r.Cells[0].Value
		if flow <= 0 || flow >= prev {
			t.Errorf("row %q: flow epoch %.3fs not positive and decreasing with nodes (prev %.3fs)",
				r.Label, flow, prev)
		}
		prev = flow
		if dgl := r.Cells[4]; !dgl.OOM && dgl.Value <= flow {
			t.Errorf("row %q: distdgl %.3fs not slower than flow %.3fs", r.Label, dgl.Value, flow)
		}
	}
}

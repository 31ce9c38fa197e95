package maxflow

import (
	"context"
	"errors"
	"testing"
)

// A bisector with a done context must stop between probes and surface the
// context's error instead of ErrInfeasible or a bogus horizon.
func TestMinTimeCanceled(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.Ctx = ctx
	if _, err := b.MinTime(1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled MinTime err = %v, want context.Canceled", err)
	}

	// Detaching (or rebinding via Reinit) restores normal solving.
	b.Reinit(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	got, err := b.MinTime(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("MinTime = %v after Reinit, want positive horizon", got)
	}
}

// Cancellation of a long search: the bisector only checks between probes,
// so a context canceled before the search starts must stop it at the first
// check.
func TestMinTimeCanceledMidBisection(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 1e12)
	b.AddRateEdge(e1, 1) // 1 B/s for 1e12 B: a horizon of 1e12 s
	b.AddFixedEdge(e2, 1e12)

	ctx, cancel := context.WithCancel(context.Background())
	b.Ctx = ctx
	cancel()
	if _, err := b.MinTime(1e-9); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-bisection MinTime err = %v, want context.Canceled", err)
	}
}

package experiments

import (
	"reflect"
	"testing"

	"ube/internal/engine"
	"ube/internal/trace"
)

// TestFig6PruningBitSafe proves the bound-pruning contract on the golden
// Figure 6 m=40 cell (its Quick analog under -short): enabling the
// objective upper bound must leave the solve byte-identical — same
// selected sources, same quality/breakdown bit patterns, same schema,
// same evaluation count (skips are still charged to the budget) — while
// actually skipping candidates (bound.skips > 0 in the solve trace).
// Each solve gets a fresh engine so engine-level caches start cold both
// times; only wall-clock fields may differ.
func TestFig6PruningBitSafe(t *testing.T) {
	o := Options{Quick: testing.Short(), MaxEvals: goldenEvals}
	ms, n := Fig6Ms(o)
	m := ms[len(ms)-2] // full scale: the paper's m=40 cell
	setup, err := NewSetup(n, o)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(pruned bool) (*engine.Solution, int64) {
		e, err := engine.New(setup.U)
		if err != nil {
			t.Fatal(err)
		}
		p, err := setup.Problem(m, Variants[0], o, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = 4
		p.BoundPruning = pruned
		tr := trace.New()
		p.Trace = tr
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		return sol, tr.Finish().Totals()[trace.CBoundSkips]
	}
	plain, plainSkips := solve(false)
	pruned, skips := solve(true)
	if plainSkips != 0 {
		t.Errorf("bound skips counted with pruning off: %d", plainSkips)
	}
	if skips == 0 {
		t.Error("bound pruning never skipped a candidate on the golden cell")
	}
	sameSolution(t, "pruned vs unpruned", plain, pruned)
	if !reflect.DeepEqual(plain.Schema, pruned.Schema) {
		t.Error("pruning changed the mediated schema")
	}
}

package experiments

import (
	"reflect"
	"testing"

	"ube/internal/engine"
	"ube/internal/search"
	"ube/internal/trace"
)

// unbounded runs the wrapped optimizer with the problem's objective
// upper bound cleared: the unpruned reference path.
type unbounded struct{ search.Optimizer }

func (u unbounded) Optimize(p *search.Problem, seed int64) search.Solution {
	p.Bound = nil
	return u.Optimizer.Optimize(p, seed)
}

// TestFig6PruningBitSafe proves the bound-pruning contract on the golden
// Figure 6 m=40 cell (its Quick analog under -short): the default solve,
// which prunes with the objective upper bound, must be byte-identical to
// the same solve with the bound cleared — same selected sources, same
// quality/breakdown bit patterns, same schema, same evaluation count
// (skips are still charged to the budget) — while actually skipping
// candidates (bound.skips > 0 in the solve trace). Each solve gets a
// fresh engine so engine-level caches start cold both times; only
// wall-clock fields may differ.
func TestFig6PruningBitSafe(t *testing.T) {
	o := Options{Quick: testing.Short(), MaxEvals: goldenEvals}
	ms, n := Fig6Ms(o)
	m := ms[len(ms)-2] // full scale: the paper's m=40 cell
	setup, err := NewSetup(n, o)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(opt search.Optimizer) (*engine.Solution, int64) {
		e, err := engine.New(setup.U)
		if err != nil {
			t.Fatal(err)
		}
		p, err := setup.Problem(m, Variants[0], o, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = 4
		p.Optimizer = opt
		tr := trace.New()
		p.Trace = tr
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		return sol, tr.Finish().Totals()[trace.CBoundSkips]
	}
	plain, plainSkips := solve(unbounded{search.NewTabu()})
	pruned, skips := solve(nil)
	if plainSkips != 0 {
		t.Errorf("bound skips counted with the bound cleared: %d", plainSkips)
	}
	if skips == 0 {
		t.Error("bound pruning never skipped a candidate on the golden cell")
	}
	sameSolution(t, "pruned vs unpruned", plain, pruned)
	if !reflect.DeepEqual(plain.Schema, pruned.Schema) {
		t.Error("pruning changed the mediated schema")
	}
}

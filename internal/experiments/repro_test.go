package experiments

import (
	"math"
	"sort"
	"sync"
	"testing"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/search"
)

// objectiveTrace records every candidate evaluation of one solve as a
// map from canonical set key to the multiset of observed quality bit
// patterns. With parallel workers the append order per key varies with
// scheduling, so each slice is sorted before comparison — but the keys
// evaluated, how often, and every single quality value must match
// bit-for-bit between reproducible solves.
type objectiveTrace struct {
	mu  sync.Mutex
	byS map[string][]uint64
	opt search.Optimizer
}

func newTrace(inner search.Optimizer) *objectiveTrace {
	return &objectiveTrace{byS: make(map[string][]uint64), opt: inner}
}

func (tr *objectiveTrace) record(key string, q float64) {
	tr.mu.Lock()
	tr.byS[key] = append(tr.byS[key], math.Float64bits(q))
	tr.mu.Unlock()
}

func (tr *objectiveTrace) Name() string { return tr.opt.Name() }

// Optimize implements search.Optimizer: it interposes on both objective
// paths of the problem, then delegates to the wrapped optimizer. The
// objective upper bound is cleared so that every candidate reaches the
// recorded objective: the trace pins each candidate's evaluation bits,
// not only those bound pruning leaves to evaluate.
func (tr *objectiveTrace) Optimize(p *search.Problem, seed int64) search.Solution {
	p.Bound = nil
	obj := p.Objective
	p.Objective = func(S *model.SourceSet) (float64, bool) {
		q, ok := obj(S)
		tr.record(S.Key(), q)
		return q, ok
	}
	if dobj := p.DeltaObjective; dobj != nil {
		p.DeltaObjective = func(S *model.SourceSet, d search.Delta) (float64, bool) {
			q, ok := dobj(S, d)
			tr.record(S.Key(), q)
			return q, ok
		}
	}
	return tr.opt.Optimize(p, seed)
}

// sorted returns the trace in canonical form.
func (tr *objectiveTrace) sorted() map[string][]uint64 {
	for _, vs := range tr.byS {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	return tr.byS
}

func sameTrace(t *testing.T, label string, a, b map[string][]uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: traces cover %d vs %d candidate sets", label, len(a), len(b))
		return
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Errorf("%s: set %q evaluated in one solve only", label, k)
			return
		}
		if len(va) != len(vb) {
			t.Errorf("%s: set %q evaluated %d vs %d times", label, k, len(va), len(vb))
			return
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Errorf("%s: set %q quality bits diverge: %x vs %x", label, k, va[i], vb[i])
				return
			}
		}
	}
}

func sameSolution(t *testing.T, label string, a, b *engine.Solution) {
	t.Helper()
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("%s: selected %d vs %d sources", label, len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		if a.Sources[i] != b.Sources[i] {
			t.Errorf("%s: source sets diverge at %d: %v vs %v", label, i, a.Sources, b.Sources)
			break
		}
	}
	if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) {
		t.Errorf("%s: quality bits %x vs %x (%v vs %v)", label,
			math.Float64bits(a.Quality), math.Float64bits(b.Quality), a.Quality, b.Quality)
	}
	if a.Feasible != b.Feasible {
		t.Errorf("%s: feasible %v vs %v", label, a.Feasible, b.Feasible)
	}
	if a.Evals != b.Evals {
		t.Errorf("%s: evals %d vs %d", label, a.Evals, b.Evals)
	}
	if len(a.Breakdown) != len(b.Breakdown) {
		t.Errorf("%s: breakdown sizes %d vs %d", label, len(a.Breakdown), len(b.Breakdown))
	}
	for k, va := range a.Breakdown {
		if math.Float64bits(va) != math.Float64bits(b.Breakdown[k]) {
			t.Errorf("%s: breakdown[%s] bits diverge: %v vs %v", label, k, va, b.Breakdown[k])
		}
	}
}

// TestFig6CellReproducible pins solve-level reproducibility on the
// Figure 6 m=40 cell (its Quick analog under -short): the same problem,
// seed and Workers=4 must yield byte-identical selected-source sets,
// quality/breakdown bit patterns, evaluation counts and objective traces
// — re-solved on the same warm engine and on a freshly built one.
func TestFig6CellReproducible(t *testing.T) {
	o := Options{Quick: testing.Short()}
	ms, n := Fig6Ms(o)
	m := ms[len(ms)-2] // full scale: m=40; quick: m=12
	setup, err := NewSetup(n, o)
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup.Problem(m, Variants[0], o, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4

	solve := func(e *engine.Engine) (*engine.Solution, map[string][]uint64) {
		tr := newTrace(search.NewTabu())
		pr := p
		pr.Optimizer = tr
		sol, err := e.Solve(&pr)
		if err != nil {
			t.Fatal(err)
		}
		return sol, tr.sorted()
	}

	sol1, trace1 := solve(setup.E)
	sol2, trace2 := solve(setup.E) // warm caches
	sameSolution(t, "warm re-solve", sol1, sol2)
	sameTrace(t, "warm re-solve", trace1, trace2)

	fresh, err := engine.New(setup.U)
	if err != nil {
		t.Fatal(err)
	}
	sol3, trace3 := solve(fresh)
	sameSolution(t, "fresh engine", sol1, sol3)
	sameTrace(t, "fresh engine", trace1, trace3)
}

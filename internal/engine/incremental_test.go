package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ube/internal/cluster"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
)

// solveObjectives rebuilds the full and delta objectives exactly as Solve
// wires them, so the differential test can probe them directly.
func solveObjectives(t *testing.T, e *Engine, p *Problem) (search.Objective, search.DeltaObjective) {
	t.Helper()
	qefs, err := e.buildQEFs(p)
	if err != nil {
		t.Fatal(err)
	}
	wMatch := p.Weights[MatchQEFName]
	wRest := 1 - wMatch
	comp, err := qef.NewComposite(qefs, restWeights(p.Weights))
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(e, p)
	C, G := p.Constraints.Sources, p.Constraints.GAs
	// The full objective clusters every component afresh; the delta one
	// goes through the solve's component memo.
	unmemoized := &matcher{e: e, cfg: cfg, C: C, G: G}
	full := func(S *model.SourceSet) (float64, bool) {
		f1, valid := unmemoized.f1(S)
		return wMatch*f1 + wRest*comp.Eval(e.ctx, S), valid
	}
	dobj, _ := e.deltaObjective(comp, wMatch, wRest, e.newMatcher(cfg, C, G))
	return full, dobj
}

// clusterConfig mirrors Solve's cluster.Config construction.
func clusterConfig(e *Engine, p *Problem) cluster.Config {
	cfg := cluster.Config{
		Theta:        p.Theta,
		Beta:         p.Beta,
		Sim:          e.sim,
		Scores:       e.scores,
		Neighbors:    e.neighbors(p.Theta),
		LegacyAgenda: e.legacyEval,
	}
	if !e.legacyEval {
		cfg.NameIDs = e.nameIDs
	}
	return cfg
}

// TestDeltaObjectiveMatchesFull walks random add/drop/swap sequences and
// checks the incremental objective agrees with the full objective within
// 1e-12 at every step — the satellite differential property the issue
// requires.
func TestDeltaObjectiveMatchesFull(t *testing.T) {
	e, _ := testEngine(t, 24)
	p := DefaultProblem()
	p.MaxSources = 8
	full, delta := solveObjectives(t, e, &p)

	r := rand.New(rand.NewSource(11))
	n := e.u.N()
	cur := model.NewSourceSet(n)
	for cur.Len() < 6 {
		cur.Add(r.Intn(n))
	}
	for step := 0; step < 300; step++ {
		cand := cur.Clone()
		d := search.Delta{Base: cur, Add: -1, Drop: -1}
		switch r.Intn(3) {
		case 0: // add
			id := r.Intn(n)
			if cand.Has(id) {
				continue
			}
			cand.Add(id)
			d.Add = id
		case 1: // drop
			if cur.Len() <= 1 {
				continue
			}
			els := cur.Elements()
			id := els[r.Intn(len(els))]
			cand.Remove(id)
			d.Drop = id
		default: // swap
			if cur.Len() <= 1 {
				continue
			}
			els := cur.Elements()
			out := els[r.Intn(len(els))]
			in := r.Intn(n)
			if cand.Has(in) {
				continue
			}
			cand.Remove(out)
			cand.Add(in)
			d.Drop, d.Add = out, in
		}
		gotQ, gotOK := delta(cand, d)
		wantQ, wantOK := full(cand)
		if gotOK != wantOK || math.Abs(gotQ-wantQ) > 1e-12 {
			t.Fatalf("step %d (add=%d drop=%d): delta (%v,%v) vs full (%v,%v)",
				step, d.Add, d.Drop, gotQ, gotOK, wantQ, wantOK)
		}
		if r.Intn(2) == 0 {
			cur = cand
		}
	}
}

// TestSolveIncrementalMatchesLegacy solves the same problems on an
// incremental-pipeline engine and a WithLegacyEvaluation engine built
// over the same universe: the chosen sources must be identical and the
// quality equal to float reassociation error.
func TestSolveIncrementalMatchesLegacy(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, _ := testEngine(t, 40)
		legacy, err := New(e.u, WithLegacyEvaluation())
		if err != nil {
			t.Fatal(err)
		}
		p := smallProblem()
		p.MaxSources = 10
		p.MaxEvals = 1500
		p.Workers = workers

		got, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacy.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sources, want.Sources) {
			t.Fatalf("workers=%d: incremental chose %v, legacy chose %v", workers, got.Sources, want.Sources)
		}
		if math.Abs(got.Quality-want.Quality) > 1e-9 {
			t.Fatalf("workers=%d: quality %v vs %v", workers, got.Quality, want.Quality)
		}
		if got.MatchCache.Hits+got.MatchCache.Misses == 0 {
			t.Fatal("no component memo traffic recorded")
		}
	}
}

// TestSolveIncrementalDeterministic pins determinism of the incremental
// pipeline under parallel evaluation: repeated solves with Workers > 1
// must return byte-identical solutions (also exercised under -race).
func TestSolveIncrementalDeterministic(t *testing.T) {
	e, _ := testEngine(t, 40)
	p := smallProblem()
	p.MaxSources = 10
	p.MaxEvals = 1200
	p.Workers = 4

	first, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Sources, again.Sources) || first.Quality != again.Quality {
			t.Fatalf("run %d diverged: %v q=%v vs %v q=%v",
				i, first.Sources, first.Quality, again.Sources, again.Quality)
		}
	}
}

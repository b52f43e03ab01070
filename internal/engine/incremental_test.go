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
	"ube/internal/trace"
)

// solveComposite builds Solve's composite of the QEFs other than F1 and
// the weights of F1 and of the composite.
func solveComposite(t *testing.T, e *Engine, p *Problem) (comp *qef.Composite, wMatch, wRest float64) {
	t.Helper()
	qefs, err := e.buildQEFs(p)
	if err != nil {
		t.Fatal(err)
	}
	comp, err = qef.NewComposite(qefs, restWeights(p.Weights))
	if err != nil {
		t.Fatal(err)
	}
	wMatch = p.Weights[MatchQEFName]
	return comp, wMatch, 1 - wMatch
}

// solveObjectives rebuilds the full and delta objectives exactly as Solve
// wires them, so the differential test can probe them directly.
func solveObjectives(t *testing.T, e *Engine, p *Problem) (search.Objective, search.DeltaObjective) {
	t.Helper()
	comp, wMatch, wRest := solveComposite(t, e, p)
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
	return cluster.Config{
		Theta:     p.Theta,
		Beta:      p.Beta,
		Sim:       e.sim,
		Scores:    e.scores,
		Neighbors: e.neighbors(p.Theta),
		NameIDs:   e.nameIDs,
	}
}

// TestDeltaObjectiveMatchesFull walks random add/drop/swap sequences and
// checks the incremental objective is bit-identical to the full objective
// at every step: adds, drops and swaps all take the incumbent edit path.
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
		if gotOK != wantOK || math.Float64bits(gotQ) != math.Float64bits(wantQ) {
			t.Fatalf("step %d (add=%d drop=%d): delta (%v,%v) vs full (%v,%v)",
				step, d.Add, d.Drop, gotQ, gotOK, wantQ, wantOK)
		}
		if r.Intn(2) == 0 {
			cur = cand
		}
	}
}

// TestSolveIncrementalMatchesLegacy checks Solve against the plain
// pipeline it optimizes: a tabu search with the same seed and workers
// over the plain objective — whole-set cluster.Match with no adjacency
// index plus the full composite evaluation, with no delta objective and
// no component memo. The chosen sources must be identical and the quality
// equal to float reassociation error. It runs on the plain universe, where
// Solve decides every component in closed form, and on the paired one
// (pairedEngine), where components reach the memo.
func TestSolveIncrementalMatchesLegacy(t *testing.T) {
	for _, paired := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			e, _ := testEngine(t, 40)
			if paired {
				e = pairedEngine(t, 40)
			}
			p := smallProblem()
			p.MaxSources = 10
			p.MaxEvals = 1500
			p.Workers = workers
			tr := trace.New()
			p.Trace = tr

			got, err := e.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			want := plainSolve(t, e, &p)
			if !reflect.DeepEqual(got.Sources, want.S.Elements()) {
				t.Fatalf("paired=%v workers=%d: Solve chose %v, the plain objective %v", paired, workers, got.Sources, want.S.Elements())
			}
			if math.Abs(got.Quality-want.Quality) > 1e-9 {
				t.Fatalf("paired=%v workers=%d: quality %v vs %v", paired, workers, got.Quality, want.Quality)
			}
			if closed := tr.Finish().Totals()[trace.CClusterClosed]; !paired && closed == 0 {
				t.Fatal("no closed-form components recorded")
			}
			if paired && got.MatchCache.Hits+got.MatchCache.Misses == 0 {
				t.Fatal("no component memo traffic recorded")
			}
		}
	}
}

// plainSolve runs Solve's default optimizer, tabu search, with p's seed
// over the plain objective: whole-set Match on the solve's scores with no
// adjacency index, plus the full composite evaluation.
func plainSolve(t *testing.T, e *Engine, p *Problem) search.Solution {
	t.Helper()
	comp, wMatch, wRest := solveComposite(t, e, p)
	scores, _ := e.scoresFor(p.Theta, nil)
	cfg := cluster.Config{Theta: p.Theta, Beta: p.Beta, Sim: e.sim, Scores: scores}
	C, G := p.Constraints.Sources, p.Constraints.GAs
	return search.NewTabu().Optimize(&search.Problem{
		N:        e.u.N(),
		M:        p.MaxSources,
		Required: p.Constraints.ImpliedSources(),
		Excluded: p.Constraints.Exclude,
		Initial:  p.InitialSources,
		Objective: func(S *model.SourceSet) (float64, bool) {
			res := cluster.Match(e.u, S.Elements(), C, G, cfg)
			return wMatch*res.Quality + wRest*comp.Eval(e.ctx, S), res.Valid
		},
		MaxEvals: p.MaxEvals,
		Workers:  p.Workers,
	}, p.Seed)
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

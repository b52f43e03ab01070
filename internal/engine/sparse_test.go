package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ube/internal/search"
	"ube/internal/synth"
	"ube/internal/trace"
)

// TestSparseSolveMatchesDense forces the blocking-index sparse scorer on
// a universe small enough for the dense matrix and requires the two
// paths to produce bit-identical solutions: prefix blocking has recall 1
// and the sparse table answers every Score bit-equal to a matrix cell,
// so nothing downstream may diverge.
func TestSparseSolveMatchesDense(t *testing.T) {
	cfg := synth.QuickConfig(40)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(sparse bool, workers int) *Solution {
		var opts []Option
		if sparse {
			opts = append(opts, WithSparseScores())
		}
		e, err := New(u, opts...)
		if err != nil {
			t.Fatal(err)
		}
		p := smallProblem()
		p.Workers = workers
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	for _, workers := range []int{1, 4} {
		dense := solve(false, workers)
		sparse := solve(true, workers)
		if !reflect.DeepEqual(dense.Sources, sparse.Sources) {
			t.Errorf("workers=%d: sources diverge: %v vs %v", workers, dense.Sources, sparse.Sources)
		}
		//ube:float-exact the sparse path must reproduce the dense solve bit-for-bit
		if dense.Quality != sparse.Quality {
			t.Errorf("workers=%d: quality diverges: %v vs %v", workers, dense.Quality, sparse.Quality)
		}
		if dense.Evals != sparse.Evals {
			t.Errorf("workers=%d: evals diverge: %d vs %d", workers, dense.Evals, sparse.Evals)
		}
		if !reflect.DeepEqual(dense.Breakdown, sparse.Breakdown) {
			t.Errorf("workers=%d: breakdowns diverge: %v vs %v", workers, dense.Breakdown, sparse.Breakdown)
		}
		if !reflect.DeepEqual(dense.Schema, sparse.Schema) {
			t.Errorf("workers=%d: schemas diverge", workers)
		}
	}
}

// TestSparseTraceDeterministic solves on the sparse path twice per
// worker count, each on a fresh engine (cold neighbor lists and cold
// blocking index — build counters are part of the payload), and requires
// byte-identical canonical traces. It also pins that the blocking
// counters actually fire on this path.
func TestSparseTraceDeterministic(t *testing.T) {
	cfg := synth.QuickConfig(40)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) ([]byte, trace.Counts) {
		e, err := New(u, WithSparseScores())
		if err != nil {
			t.Fatal(err)
		}
		p := smallProblem()
		p.Workers = workers
		tr := trace.New()
		p.Trace = tr
		if _, err := e.Solve(&p); err != nil {
			t.Fatal(err)
		}
		fin := tr.Finish()
		// schemaio would import-cycle back into engine, so serialize the
		// canonical trace with plain JSON; byte equality is what matters.
		data, err := json.Marshal(fin.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return data, fin.Totals()
	}
	for _, workers := range []int{1, 4} {
		first, totals := solve(workers)
		second, _ := solve(workers)
		if !bytes.Equal(first, second) {
			t.Fatalf("workers=%d: canonical traces differ across fresh-engine reruns:\n--- first\n%s\n--- second\n%s",
				workers, first, second)
		}
		if totals[trace.CBlockProbes] == 0 || totals[trace.CBlockCandidates] == 0 {
			t.Errorf("workers=%d: blocking counters did not fire: probes=%d candidates=%d",
				workers, totals[trace.CBlockProbes], totals[trace.CBlockCandidates])
		}
	}
}

// unbounded runs the wrapped optimizer with the problem's objective
// upper bound cleared: the unpruned reference path.
type unbounded struct{ search.Optimizer }

func (u unbounded) Optimize(p *search.Problem, seed int64) search.Solution {
	p.Bound = nil
	return u.Optimizer.Optimize(p, seed)
}

// TestBoundPruningBitSafe solves the same problem as Solve sets it up,
// with the objective upper bound, and through an optimizer that clears
// the bound, and requires identical solutions while the pruned run
// actually skips candidates — pruning is an accounting-only shortcut,
// never a search change.
func TestBoundPruningBitSafe(t *testing.T) {
	cfg := synth.QuickConfig(40)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(opt search.Optimizer) (*Solution, int64) {
		e, err := New(u)
		if err != nil {
			t.Fatal(err)
		}
		p := smallProblem()
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
		t.Error("the default solve never skipped a candidate")
	}
	if !reflect.DeepEqual(plain.Sources, pruned.Sources) {
		t.Errorf("pruning changed the selection: %v vs %v", plain.Sources, pruned.Sources)
	}
	//ube:float-exact pruning must be bit-safe
	if plain.Quality != pruned.Quality {
		t.Errorf("pruning changed the quality: %v vs %v", plain.Quality, pruned.Quality)
	}
	if plain.Evals != pruned.Evals {
		t.Errorf("pruning changed the eval count: %d vs %d (skips still count)", plain.Evals, pruned.Evals)
	}
}

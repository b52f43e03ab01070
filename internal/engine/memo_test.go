package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ube/internal/model"
	"ube/internal/synth"
)

// canonicalSolution strips the operational telemetry (wall-clock time,
// cache counters) that legitimately varies between bit-identical solves,
// mirroring the chaos suite's history canonicalization.
func canonicalSolution(sol *Solution) Solution {
	c := *sol
	c.Elapsed = 0
	c.MatchCache = CacheStats{}
	return c
}

// TestAppendSolvedMatchesSolveContext proves the solve-memo hooks are
// exact: a session driven by SolveInput + an external engine solve +
// AppendSolved must be indistinguishable — history, problem state, and
// all future solves — from one driven by SolveContext. This is the
// invariant the serving layer's cross-session memo rests on.
func TestAppendSolvedMatchesSolveContext(t *testing.T) {
	e, _ := testEngine(t, 40)
	ref := NewSession(e, smallProblem())
	memo := NewSession(e, smallProblem())

	for k := 0; k < 3; k++ {
		want, err := ref.Solve()
		if err != nil {
			t.Fatalf("iteration %d: reference solve: %v", k, err)
		}
		// The memo path: snapshot the exact solver input, solve it
		// outside the session, and append the result.
		in := memo.SolveInput()
		got, err := e.Solve(&in)
		if err != nil {
			t.Fatalf("iteration %d: external solve: %v", k, err)
		}
		memo.AppendSolved(got)
		if !reflect.DeepEqual(canonicalSolution(want), canonicalSolution(got)) {
			t.Fatalf("iteration %d: external solve of SolveInput diverges from SolveContext", k)
		}
		// Interleave feedback so warm-start and seed bookkeeping are
		// both exercised under problem edits.
		if k == 0 {
			ref.SetTheta(0.75)
			memo.SetTheta(0.75)
		}
	}

	if !reflect.DeepEqual(ref.Problem(), memo.Problem()) {
		t.Errorf("problem state diverged:\nref  %+v\nmemo %+v", ref.Problem(), memo.Problem())
	}
	rh, mh := ref.History(), memo.History()
	if len(rh) != len(mh) {
		t.Fatalf("history lengths diverged: %d vs %d", len(rh), len(mh))
	}
	for i := range rh {
		if !reflect.DeepEqual(rh[i].Problem, mh[i].Problem) {
			t.Errorf("iteration %d: recorded problems diverged", i)
		}
		if !reflect.DeepEqual(canonicalSolution(rh[i].Solution), canonicalSolution(mh[i].Solution)) {
			t.Errorf("iteration %d: recorded solutions diverged", i)
		}
	}

	// The sessions must stay interchangeable: a normal solve after the
	// memo-driven iterations lands on the same solution.
	a, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := memo.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalSolution(a), canonicalSolution(b)) {
		t.Error("post-memo solves diverged")
	}
}

// TestSolveInputIsASnapshot proves mutating SolveInput's return cannot
// reach back into the session.
func TestSolveInputIsASnapshot(t *testing.T) {
	e, _ := testEngine(t, 30)
	s := NewSession(e, smallProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	in := s.SolveInput()
	if len(in.InitialSources) == 0 {
		t.Fatal("SolveInput after a solve should carry the warm start")
	}
	in.InitialSources[0] = -99
	in.Seed = 12345
	if got := s.SolveInput(); len(got.InitialSources) > 0 && got.InitialSources[0] == -99 {
		t.Error("mutating the snapshot leaked into the session")
	}
	if s.Problem().Seed == 12345 {
		t.Error("mutating the snapshot changed the session seed")
	}
}

// memoProblems are the solves the component-memo tests run: plain, with a
// GA constraint and a source constraint, and at a second θ with β = 3.
func memoProblems() []Problem {
	plain := smallProblem()
	plain.MaxSources = 10
	plain.MaxEvals = 900
	pinned := plain
	pinned.Constraints.GAs = []model.GA{model.NewGA(model.AttrRef{Source: 0, Attr: 0}, model.AttrRef{Source: 1, Attr: 0})}
	pinned.Constraints.Sources = []int{3}
	strict := plain
	strict.Theta, strict.Beta = 0.5, 3
	return []Problem{plain, pinned, strict}
}

// TestComponentMemoMatchesUnmemoized runs whole tabu solves with and
// without the per-solve component memo, at Workers 1 and 4: the solutions
// must be identical, and the memo must actually serve hits.
func TestComponentMemoMatchesUnmemoized(t *testing.T) {
	e, _ := testEngine(t, 40)
	off, err := New(e.u, WithoutMatchCache())
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range memoProblems() {
		for _, workers := range []int{1, 4} {
			p.Workers = workers
			got, err := e.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := off.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonicalSolution(got), canonicalSolution(want)) {
				t.Fatalf("problem %d workers=%d: memoized solve %v q=%v differs from unmemoized %v q=%v",
					pi, workers, got.Sources, got.Quality, want.Sources, want.Quality)
			}
			if got.MatchCache.Hits == 0 || got.MatchCache.Misses == 0 {
				t.Fatalf("problem %d workers=%d: memo traffic %+v, want hits and misses", pi, workers, got.MatchCache)
			}
			if want.MatchCache != (CacheStats{}) {
				t.Fatalf("problem %d: memo-off solve reports memo traffic %+v", pi, want.MatchCache)
			}
		}
	}
}

// TestComponentMemoOverCap shrinks the memo bound so solves overflow it
// many times: every overflow evicts, and the solutions must stay
// identical to uncapped solves at Workers 1 and 4.
func TestComponentMemoOverCap(t *testing.T) {
	e, _ := testEngine(t, 40)
	capped, err := New(e.u)
	if err != nil {
		t.Fatal(err)
	}
	capped.memoLimit = 8
	for pi, p := range memoProblems() {
		for _, workers := range []int{1, 4} {
			p.Workers = workers
			got, err := capped.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonicalSolution(got), canonicalSolution(want)) {
				t.Fatalf("problem %d workers=%d: over-cap solve %v q=%v differs from uncapped %v q=%v",
					pi, workers, got.Sources, got.Quality, want.Sources, want.Quality)
			}
			if got.MatchCache.Evictions == 0 || want.MatchCache.Evictions != 0 {
				t.Fatalf("problem %d workers=%d: evictions capped %d, uncapped %d; want some and none",
					pi, workers, got.MatchCache.Evictions, want.MatchCache.Evictions)
			}
		}
	}
}

// TestMatchCacheUnderSparseScores solves with the component memo on and
// off over the θ-sparse blocking index, at Workers 1 and 4, and requires
// identical solutions. Names made of two words from a small list give
// many components whose pairs sit near θ = 0.4, so the memo's shape keys
// are exercised on scores read from the sparse table and its sub-θ
// fallback rather than from a dense matrix.
func TestMatchCacheUnderSparseScores(t *testing.T) {
	words := []string{"customer", "address", "line", "name", "first", "last", "billing", "shipping",
		"street", "city", "zip", "code", "phone", "number", "title", "book"}
	r := rand.New(rand.NewSource(3))
	var vocab []string
	for len(vocab) < 60 {
		a, b := words[r.Intn(len(words))], words[r.Intn(len(words))]
		if a != b && !slices.Contains(vocab, a+" "+b) {
			vocab = append(vocab, a+" "+b)
		}
	}
	u, _, err := synth.Generate(synth.QuickConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	for i := range u.Sources {
		u.Sources[i].Attributes = u.Sources[i].Attributes[:0]
		for _, j := range r.Perm(len(vocab))[:6] {
			u.Sources[i].Attributes = append(u.Sources[i].Attributes, vocab[j])
		}
	}
	on, err := New(u, WithSparseScores())
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(u, WithSparseScores(), WithoutMatchCache())
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range memoProblems() {
		p.Theta, p.MaxSources = 0.4, 20
		for _, workers := range []int{1, 4} {
			p.Workers = workers
			got, err := on.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := off.Solve(&p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonicalSolution(got), canonicalSolution(want)) {
				t.Fatalf("problem %d workers=%d: memoized solve %v q=%v differs from unmemoized %v q=%v",
					pi, workers, got.Sources, got.Quality, want.Sources, want.Quality)
			}
			if got.MatchCache.Hits == 0 {
				t.Fatalf("problem %d workers=%d: no memo hits", pi, workers)
			}
		}
	}
}

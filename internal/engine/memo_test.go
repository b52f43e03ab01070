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

// TestSolveInputMatchesSolveContext proves SolveInput is the complete
// solver input: at every iteration, an external engine solve of the
// snapshot equals the session's own next solve, and the session records
// exactly that snapshot as the iteration's problem. The ledger's churn
// replay check rests on this.
func TestSolveInputMatchesSolveContext(t *testing.T) {
	e, _ := testEngine(t, 40)
	s := NewSession(e, smallProblem())

	for k := 0; k < 3; k++ {
		in := s.SolveInput()
		ext, err := e.Solve(&in)
		if err != nil {
			t.Fatalf("iteration %d: external solve: %v", k, err)
		}
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("iteration %d: session solve: %v", k, err)
		}
		if !reflect.DeepEqual(canonicalSolution(ext), canonicalSolution(got)) {
			t.Fatalf("iteration %d: external solve of SolveInput diverges from the session's solve", k)
		}
		if rec := s.History()[k].Problem; !reflect.DeepEqual(rec, in) {
			t.Fatalf("iteration %d: recorded problem diverges from SolveInput:\nrecorded %+v\ninput    %+v", k, rec, in)
		}
		// Edit the problem after the first solve so warm-start and seed
		// bookkeeping are both exercised under feedback.
		if k == 0 {
			s.SetTheta(0.75)
		}
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

// pairedEngine builds an engine over the quick synthetic universe with
// every source also holding the plural of its first attribute, which the
// default measure scores at least 0.66 against it (see pairUp). Each such
// pair puts two slots of one source in one θ-component, so components
// repeat a source and reach the component memo: on the plain universe
// every component is source-disjoint and decided in closed form.
func pairedEngine(t testing.TB, n int) *Engine {
	t.Helper()
	u, _, err := synth.Generate(synth.QuickConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	pairUp(u)
	e, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pairUp appends to every source the plural of its first attribute.
func pairUp(u *model.Universe) {
	for i := range u.Sources {
		if a := u.Sources[i].Attributes; !slices.Contains(a, a[0]+"s") {
			u.Sources[i].Attributes = append(a, a[0]+"s")
		}
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
// without the per-solve component memo, at Workers 1 and 4, over the
// paired universe: the solutions must be identical, and the memo must
// actually serve hits.
func TestComponentMemoMatchesUnmemoized(t *testing.T) {
	e := pairedEngine(t, 40)
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

// TestComponentMemoOverCap shrinks the memo bound so solves over the
// paired universe overflow it many times: every overflow evicts, and the
// solutions must stay identical to uncapped solves at Workers 1 and 4.
func TestComponentMemoOverCap(t *testing.T) {
	e := pairedEngine(t, 40)
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

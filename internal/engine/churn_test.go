package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ube/internal/cluster"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/synth"
)

// cloneUniverse copies a universe deeply enough that churn on the copy
// never touches the original: the source slice and every per-source
// slice/map are fresh; immutable sketches stay shared.
func cloneUniverse(u *model.Universe) *model.Universe {
	out := &model.Universe{Sources: append([]model.Source(nil), u.Sources...)}
	for i := range out.Sources {
		s := &out.Sources[i]
		s.Attributes = append([]string(nil), s.Attributes...)
		s.AttrSignatures = append([]*pcsa.Sketch(nil), s.AttrSignatures...)
		if s.Characteristics != nil {
			cc := make(map[string]float64, len(s.Characteristics))
			//ube:nondeterministic-ok key-for-key map copy is order-independent
			for k, v := range s.Characteristics {
				cc[k] = v
			}
			s.Characteristics = cc
		}
	}
	return out
}

// applyOracle is the differential oracle's universe mutator: a separate,
// deliberately naive implementation of the batch semantics (sequential
// IDs, splice + renumber) with none of the engine's incremental
// bookkeeping.
func applyOracle(t *testing.T, u *model.Universe, muts []Mutation) *model.Universe {
	t.Helper()
	out := cloneUniverse(u)
	for _, m := range muts {
		switch m.Op {
		case OpAdd:
			s := m.Source
			s.ID = len(out.Sources)
			out.Sources = append(out.Sources, *cloneUniverse(&model.Universe{Sources: []model.Source{s}}).Source(0))
		case OpRemove:
			out.Sources = append(out.Sources[:m.ID], out.Sources[m.ID+1:]...)
		case OpUpdate:
			if m.Cardinality != nil {
				out.Sources[m.ID].Cardinality = *m.Cardinality
			}
			if m.Characteristics != nil {
				cc := make(map[string]float64, len(m.Characteristics))
				//ube:nondeterministic-ok key-for-key map copy is order-independent
				for k, v := range m.Characteristics {
					cc[k] = v
				}
				out.Sources[m.ID].Characteristics = cc
			}
		default:
			t.Fatalf("oracle: unknown op %q", m.Op)
		}
	}
	for i := range out.Sources {
		out.Sources[i].ID = i
	}
	return out
}

// universeJSON renders a universe for byte equality checks.
func universeJSON(t *testing.T, u *model.Universe) string {
	t.Helper()
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// canonSparse forces the engine's θ-sparse table and renders the rows of
// every live attribute name in an intern-space-independent form:
// normalized name -> sorted "neighborName:scoreBits" entries. Churned
// and fresh engines intern in different orders, so only this canonical
// view is comparable.
func canonSparse(t *testing.T, e *Engine, theta float64) map[string][]string {
	t.Helper()
	sp := e.sparse(theta, nil)
	if sp == nil {
		t.Fatalf("θ=%v: no sparse table (measure not blockable?)", theta)
	}
	live := make(map[int]bool)
	for _, row := range e.nameIDs {
		for _, id := range row {
			live[id] = true
		}
	}
	nbrs := sp.Neighbors(theta)
	out := make(map[string][]string, len(live))
	//ube:nondeterministic-ok each key's row is computed independently and sorted
	for id := range live {
		row := make([]string, 0, len(nbrs[id]))
		for _, j := range nbrs[id] {
			row = append(row, fmt.Sprintf("%s:%016x", e.sim.NameOf(j), math.Float64bits(sp.Score(id, j))))
		}
		sort.Strings(row)
		out[e.sim.NameOf(id)] = row
	}
	return out
}

// unionChecksum is the PCSA union checksum over a universe's
// cooperative signatures, 0 when there are none.
func unionChecksum(t *testing.T, u *model.Universe) uint64 {
	t.Helper()
	var coop []*pcsa.Sketch
	for i := range u.Sources {
		if sg := u.Sources[i].Signature; sg != nil {
			coop = append(coop, sg)
		}
	}
	if len(coop) == 0 {
		return 0
	}
	un, err := pcsa.Union(coop...)
	if err != nil {
		t.Fatal(err)
	}
	return un.Checksum()
}

// canonSolution strips the operational fields replay comparisons zero
// (wall clock, cache traffic) so warm and cold engines compare equal.
func canonSolution(sol *Solution) Solution {
	out := *sol
	out.Elapsed = 0
	out.MatchCache = CacheStats{}
	return out
}

func churnTestModes() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"sparse-prefix", []Option{WithSparseScores()}},
	}
}

// TestChurnDifferential is the tentpole: a 200-batch seeded schedule of
// adds, removes and updates applied incrementally to one engine, with a
// fresh engine built on the independently mutated universe after every
// prefix. Universe bytes, the maintained signature union and the
// θ-sparse postings must match after every batch; full solves (Workers
// 1 and 4) must match at intervals and at the end.
func TestChurnDifferential(t *testing.T) {
	const seed = 7
	cfg := synth.QuickConfig(30)
	cc := synth.ChurnConfig{Seed: seed, Steps: 200, MinSources: 12, MaxSources: 60}
	if testing.Short() {
		cc.Steps = 40
	}
	base, batches, err := synth.ChurnSchedule(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	theta := smallProblem().Theta
	for _, mode := range churnTestModes() {
		t.Run(mode.name, func(t *testing.T) {
			inc, err := New(cloneUniverse(base), mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			oracle := cloneUniverse(base)
			for bi, batch := range batches {
				if _, err := inc.ApplyChurn(batch); err != nil {
					t.Fatalf("seed %d batch %d: ApplyChurn: %v", seed, bi, err)
				}
				oracle = applyOracle(t, oracle, batch)
				if got, want := universeJSON(t, inc.Universe()), universeJSON(t, oracle); got != want {
					t.Fatalf("seed %d batch %d: incremental universe diverged from oracle", seed, bi)
				}
				if want := unionChecksum(t, oracle); want != 0 {
					got := inc.sigCounter.Sketch()
					if got == nil || got.Checksum() != want {
						t.Fatalf("seed %d batch %d: maintained signature union diverged from fresh union", seed, bi)
					}
				}
				fresh, err := New(cloneUniverse(oracle), mode.opts...)
				if err != nil {
					t.Fatalf("seed %d batch %d: fresh engine: %v", seed, bi, err)
				}
				gotRows, wantRows := canonSparse(t, inc, theta), canonSparse(t, fresh, theta)
				if !reflect.DeepEqual(gotRows, wantRows) {
					for name, row := range wantRows {
						if !reflect.DeepEqual(gotRows[name], row) {
							t.Errorf("seed %d batch %d: row %q: incremental %v, fresh %v", seed, bi, name, gotRows[name], row)
						}
					}
					t.Fatalf("seed %d batch %d: incremental θ-sparse postings diverged from fresh build", seed, bi)
				}
				if bi%20 != 19 && bi != len(batches)-1 {
					continue
				}
				for _, workers := range []int{1, 4} {
					p := smallProblem()
					p.Workers = workers
					pInc, pFresh := p, p
					got, err := inc.Solve(&pInc)
					if err != nil {
						t.Fatalf("seed %d batch %d workers %d: incremental solve: %v", seed, bi, workers, err)
					}
					want, err := fresh.Solve(&pFresh)
					if err != nil {
						t.Fatalf("seed %d batch %d workers %d: fresh solve: %v", seed, bi, workers, err)
					}
					if !reflect.DeepEqual(canonSolution(got), canonSolution(want)) {
						t.Fatalf("seed %d batch %d workers %d: incremental solve diverged from fresh engine:\n got %+v\nwant %+v",
							seed, bi, workers, canonSolution(got), canonSolution(want))
					}
				}
			}
		})
	}
}

// TestChurnDifferentialDense runs the schedule against the dense-matrix
// path: the matrix is rebuilt lazily after churn and solves must match a
// fresh dense engine on the mutated universe.
func TestChurnDifferentialDense(t *testing.T) {
	const seed = 11
	cfg := synth.QuickConfig(25)
	steps := 30
	if testing.Short() {
		steps = 10
	}
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: seed, Steps: steps, MinSources: 10, MaxSources: 50})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(cloneUniverse(base))
	if err != nil {
		t.Fatal(err)
	}
	oracle := cloneUniverse(base)
	for bi, batch := range batches {
		if _, err := inc.ApplyChurn(batch); err != nil {
			t.Fatalf("seed %d batch %d: ApplyChurn: %v", seed, bi, err)
		}
		oracle = applyOracle(t, oracle, batch)
		fresh, err := New(cloneUniverse(oracle))
		if err != nil {
			t.Fatalf("seed %d batch %d: fresh engine: %v", seed, bi, err)
		}
		p := smallProblem()
		pInc, pFresh := p, p
		got, err := inc.Solve(&pInc)
		if err != nil {
			t.Fatalf("seed %d batch %d: incremental solve: %v", seed, bi, err)
		}
		want, err := fresh.Solve(&pFresh)
		if err != nil {
			t.Fatalf("seed %d batch %d: fresh solve: %v", seed, bi, err)
		}
		if !reflect.DeepEqual(canonSolution(got), canonSolution(want)) {
			t.Fatalf("seed %d batch %d: dense-path solve diverged after churn", seed, bi)
		}
	}
	if inc.matrix == nil {
		t.Fatal("dense engine lost its matrix despite a small vocabulary")
	}
}

// TestChurnDenseMatrixGrowsByNewNames pins how churn maintains the dense
// matrix, on TestChurnDifferentialDense's schedule: a batch that interns
// no new name keeps the very same matrix and neighbor lists (no rebuild,
// no rescan), and a batch that
// interns new names grows it by exactly their count. Either way the
// session's warm-started re-solve must be bit-identical to a from-scratch
// solve of the same input on a fresh dense engine.
func TestChurnDenseMatrixGrowsByNewNames(t *testing.T) {
	const seed = 11
	cfg := synth.QuickConfig(25)
	steps := 30
	if testing.Short() {
		steps = 10
	}
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: seed, Steps: steps, MinSources: 10, MaxSources: 50})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cloneUniverse(base))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e, smallProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	oracle := cloneUniverse(base)
	theta := smallProblem().Theta
	var kept, grown int
	for bi, batch := range batches {
		prev, vocab := e.matrix, e.sim.Len()
		prevNbrs := e.neighborsByTheta[theta]
		if _, err := s.ApplyChurn(batch); err != nil {
			t.Fatalf("seed %d batch %d: session ApplyChurn: %v", seed, bi, err)
		}
		oracle = applyOracle(t, oracle, batch)
		input := s.SolveInput()
		ref, err := New(cloneUniverse(oracle))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(&input)
		if err != nil {
			t.Fatalf("seed %d batch %d: from-scratch solve: %v", seed, bi, err)
		}
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("seed %d batch %d: warm re-solve: %v", seed, bi, err)
		}
		if !reflect.DeepEqual(canonSolution(got), canonSolution(want)) {
			t.Fatalf("seed %d batch %d: warm-started dense re-solve diverged from from-scratch solve:\n got %+v\nwant %+v",
				seed, bi, canonSolution(got), canonSolution(want))
		}
		switch added := e.sim.Len() - vocab; {
		case e.matrix == nil:
			t.Fatalf("seed %d batch %d: dense engine lost its matrix", seed, bi)
		case added == 0:
			kept++
			if e.matrix != prev {
				t.Fatalf("seed %d batch %d: a batch that interned no new name rebuilt the matrix", seed, bi)
			}
			if nbrs := e.neighborsByTheta[theta]; len(nbrs) == 0 || len(prevNbrs) == 0 || &nbrs[0] != &prevNbrs[0] {
				t.Fatalf("seed %d batch %d: a batch that interned no new name rescanned the neighbor lists", seed, bi)
			}
		default:
			grown++
			if e.matrix.Len() != prev.Len()+added || e.matrix.Len() != e.sim.Len() {
				t.Fatalf("seed %d batch %d: %d new names grew the matrix from %d to %d names (vocabulary %d)",
					seed, bi, added, prev.Len(), e.matrix.Len(), e.sim.Len())
			}
		}
	}
	if kept == 0 || grown == 0 {
		t.Fatalf("schedule exercised %d kept and %d grown matrices, want both", kept, grown)
	}
	t.Logf("%d batches kept the matrix, %d grew it", kept, grown)
}

// TestChurnComponentF1MatchesRebuild pins the component F1 path of a
// churned engine to a rebuild. After every batch, the Result the churned
// engine composes from θ-components — split over its grown or re-frozen
// tables — must be deep-equal to whole-set Match with no adjacency index
// (the call the cluster tests pin to their Algorithm 1 transcription),
// scored by a fresh engine's tables over the mutated universe, for random
// candidate sets at two thresholds, on the dense and the θ-sparse path.
func TestChurnComponentF1MatchesRebuild(t *testing.T) {
	const seed = 17
	cfg := synth.QuickConfig(30)
	steps := 60
	if testing.Short() {
		steps = 24
	}
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: seed, Steps: steps, MinSources: 12, MaxSources: 60})
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{smallProblem().Theta, 0.5}
	for _, mode := range []struct {
		name string
		opts []Option
	}{{"dense", nil}, {"sparse", []Option{WithSparseScores()}}} {
		t.Run(mode.name, func(t *testing.T) {
			e, err := New(cloneUniverse(base), mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			check := func(where string) {
				fresh, err := New(cloneUniverse(e.u), mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, theta := range thetas {
					scores, nbrs := e.scoresFor(theta, nil)
					mt := e.newMatcher(cluster.Config{Theta: theta, Beta: 2, Sim: e.sim, Scores: scores, Neighbors: nbrs, NameIDs: e.nameIDs}, nil, nil)
					freshScores, _ := fresh.scoresFor(theta, nil)
					oracle := cluster.Config{Theta: theta, Beta: 2, Sim: fresh.sim, Scores: freshScores}
					for k := 0; k < 4; k++ {
						S := model.NewSourceSet(e.u.N())
						for S.Len() < min(8, e.u.N()) {
							S.Add(r.Intn(e.u.N()))
						}
						got := mt.result(S)
						want := cluster.Match(fresh.u, S.Elements(), nil, nil, oracle)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s θ=%v S=%v: component Result differs from a rebuilt whole-set Match\ngot  %+v\nwant %+v",
								where, theta, S.Elements(), got, want)
						}
					}
				}
			}
			check("before churn")
			for bi, batch := range batches {
				if _, err := e.ApplyChurn(batch); err != nil {
					t.Fatalf("seed %d batch %d: ApplyChurn: %v", seed, bi, err)
				}
				check(fmt.Sprintf("seed %d batch %d", seed, bi))
			}
		})
	}
}

// TestChurnWarmResolveMatchesFresh: after each churn batch, a session's
// warm-started re-solve must be bit-identical to a from-scratch solve of
// the exact SolveInput snapshot on a fresh engine over the mutated
// universe — the end-to-end warm-start differential.
func TestChurnWarmResolveMatchesFresh(t *testing.T) {
	const seed = 13
	cfg := synth.QuickConfig(30)
	steps := 12
	if testing.Short() {
		steps = 5
	}
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: seed, Steps: steps, MinSources: 12, MaxSources: 60})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cloneUniverse(base), WithSparseScores())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e, smallProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	oracle := cloneUniverse(base)
	for bi, batch := range batches {
		remap, err := s.ApplyChurn(batch)
		if err != nil {
			t.Fatalf("seed %d batch %d: session ApplyChurn: %v", seed, bi, err)
		}
		oracle = applyOracle(t, oracle, batch)
		// The repaired warm start must be the last solution remapped,
		// minus vanished sources.
		wantInit := make([]int, 0)
		for _, id := range s.Last().Sources {
			if bi == 0 {
				if nid := remap.Of(id); nid >= 0 {
					wantInit = append(wantInit, nid)
				}
			}
		}
		input := s.SolveInput()
		if bi == 0 && !reflect.DeepEqual(input.InitialSources, wantInit) {
			t.Fatalf("seed %d batch %d: warm start %v, want remapped %v", seed, bi, input.InitialSources, wantInit)
		}
		fresh, err := New(cloneUniverse(oracle), WithSparseScores())
		if err != nil {
			t.Fatal(err)
		}
		inputCopy := input
		want, err := fresh.Solve(&inputCopy)
		if err != nil {
			t.Fatalf("seed %d batch %d: from-scratch solve: %v", seed, bi, err)
		}
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("seed %d batch %d: warm re-solve: %v", seed, bi, err)
		}
		if !reflect.DeepEqual(canonSolution(got), canonSolution(want)) {
			t.Fatalf("seed %d batch %d: warm-started re-solve diverged from from-scratch solve:\n got %+v\nwant %+v",
				seed, bi, canonSolution(got), canonSolution(want))
		}
	}
}

// TestChurnAddRemoveNoOp: adding a source and then removing it restores
// the engine's observable state exactly — universe bytes, signature
// union, sparse postings and solve results.
func TestChurnAddRemoveNoOp(t *testing.T) {
	cfg := synth.QuickConfig(20)
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 3, Steps: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dig an add out of the schedule's pool: generate until we have one.
	var added model.Source
	found := false
	for _, m := range batches[0] {
		if m.Op == OpAdd {
			added, found = m.Source, true
		}
	}
	if !found {
		ext := cfg
		ext.NumSources = cfg.NumSources + 1
		pool, _, err := synth.Generate(ext)
		if err != nil {
			t.Fatal(err)
		}
		added = pool.Sources[cfg.NumSources]
	}
	e, err := New(cloneUniverse(base), WithSparseScores())
	if err != nil {
		t.Fatal(err)
	}
	theta := smallProblem().Theta
	beforeU := universeJSON(t, e.Universe())
	beforeRows := canonSparse(t, e, theta)
	p := smallProblem()
	beforeSol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddSource(added)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RemoveSource(id); err != nil {
		t.Fatal(err)
	}
	if got := universeJSON(t, e.Universe()); got != beforeU {
		t.Fatal("add-then-remove changed the universe")
	}
	if got := unionChecksum(t, e.Universe()); e.sigCounter.Sketch() != nil && e.sigCounter.Sketch().Checksum() != got {
		t.Fatal("add-then-remove desynced the maintained signature union")
	}
	if got := canonSparse(t, e, theta); !reflect.DeepEqual(got, beforeRows) {
		t.Fatal("add-then-remove changed the θ-sparse postings")
	}
	p2 := smallProblem()
	afterSol, err := e.Solve(&p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonSolution(beforeSol), canonSolution(afterSol)) {
		t.Fatal("add-then-remove changed solve results")
	}
}

// TestChurnCommutingBatches: mutation orders with the same net effect
// must land in identical final state. Removing {a, b} descending equals
// removing ascending with the shifted ID; independent updates commute.
func TestChurnCommutingBatches(t *testing.T) {
	cfg := synth.QuickConfig(20)
	u, _, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 1, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	card := int64(4242)
	mttf := 77.5
	perms := [][]Mutation{
		{
			{Op: OpUpdate, ID: 3, Cardinality: &card},
			{Op: OpUpdate, ID: 9, Characteristics: map[string]float64{"mttf": mttf}},
			{Op: OpRemove, ID: 12},
			{Op: OpRemove, ID: 5},
		},
		{
			{Op: OpRemove, ID: 5},
			{Op: OpRemove, ID: 11}, // original 12, shifted by the removal of 5
			{Op: OpUpdate, ID: 8, Characteristics: map[string]float64{"mttf": mttf}}, // original 9, likewise shifted
			{Op: OpUpdate, ID: 3, Cardinality: &card},
		},
	}
	theta := smallProblem().Theta
	var wantU string
	var wantRows map[string][]string
	var wantSol Solution
	for pi, muts := range perms {
		e, err := New(cloneUniverse(u), WithSparseScores())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyChurn(muts); err != nil {
			t.Fatalf("perm %d: %v", pi, err)
		}
		gotU := universeJSON(t, e.Universe())
		gotRows := canonSparse(t, e, theta)
		p := smallProblem()
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		gotSol := canonSolution(sol)
		if pi == 0 {
			wantU, wantRows, wantSol = gotU, gotRows, gotSol
			continue
		}
		if gotU != wantU {
			t.Fatalf("perm %d: final universe differs from perm 0", pi)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Fatalf("perm %d: final postings differ from perm 0", pi)
		}
		if !reflect.DeepEqual(gotSol, wantSol) {
			t.Fatalf("perm %d: final solve differs from perm 0", pi)
		}
	}
}

// TestChurnPinnedSource: removing a source the session pins — required
// directly or referenced by a GA constraint — returns a typed
// *PinnedSourceError, never panics, and leaves the batch unapplied.
func TestChurnPinnedSource(t *testing.T) {
	cfg := synth.QuickConfig(20)
	u, _, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 2, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cloneUniverse(u), WithSparseScores())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e, smallProblem())
	if err := s.RequireSource(3); err != nil {
		t.Fatal(err)
	}
	if err := s.PinGA(model.NewGA(
		model.AttrRef{Source: 5, Attr: 0},
		model.AttrRef{Source: 6, Attr: 0},
	)); err != nil {
		t.Fatal(err)
	}
	before := universeJSON(t, e.Universe())
	beforeProblem := s.Problem()
	var pinErr *PinnedSourceError
	// Direct source constraint; the batch removes an innocent source
	// first, so refusal also proves all-or-nothing.
	_, err = s.ApplyChurn([]Mutation{{Op: OpRemove, ID: 10}, {Op: OpRemove, ID: 3}})
	if !errors.As(err, &pinErr) || pinErr.ID != 3 || pinErr.Constraint != "source" {
		t.Fatalf("removing required source: got %v, want *PinnedSourceError{ID:3, source}", err)
	}
	_, err = s.ApplyChurn([]Mutation{{Op: OpRemove, ID: 5}})
	if !errors.As(err, &pinErr) || pinErr.ID != 5 || pinErr.Constraint != "ga" {
		t.Fatalf("removing GA-pinned source: got %v, want *PinnedSourceError{ID:5, ga}", err)
	}
	if got := universeJSON(t, e.Universe()); got != before {
		t.Fatal("refused churn mutated the universe")
	}
	if !reflect.DeepEqual(s.Problem(), beforeProblem) {
		t.Fatal("refused churn mutated the problem")
	}
	// Removing the unpinned neighbor remaps the constraints in place.
	remap, err := s.ApplyChurn([]Mutation{{Op: OpRemove, ID: 4}})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Problem()
	if !reflect.DeepEqual(p.Constraints.Sources, []int{3}) {
		t.Fatalf("source constraint after remap: %v", p.Constraints.Sources)
	}
	if got := p.Constraints.GAs[0]; got[0].Source != 4 || got[1].Source != 5 {
		t.Fatalf("GA constraint after remap: %+v", got)
	}
	if remap.Of(5) != 4 || remap.Of(4) != -1 {
		t.Fatalf("remap: %v", remap)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("solve after constrained churn: %v", err)
	}
}

// TestChurnRejects covers batch validation: unknown ops, out-of-range
// IDs, empty batches and transiently incompatible signature parameters
// are refused with no effect.
func TestChurnRejects(t *testing.T) {
	cfg := synth.QuickConfig(12)
	u, _, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 4, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cloneUniverse(u), WithSparseScores())
	if err != nil {
		t.Fatal(err)
	}
	before := universeJSON(t, e.Universe())
	cases := []struct {
		name string
		muts []Mutation
	}{
		{"empty", nil},
		{"unknown-op", []Mutation{{Op: "rename", ID: 0}}},
		{"remove-oob", []Mutation{{Op: OpRemove, ID: 99}}},
		{"remove-negative", []Mutation{{Op: OpRemove, ID: -1}}},
		{"update-oob", []Mutation{{Op: OpUpdate, ID: 99}}},
		{"add-empty-schema", []Mutation{{Op: OpAdd, Source: model.Source{Name: "bad"}}}},
		{"add-incompatible-signature", []Mutation{{Op: OpAdd, Source: model.Source{
			Name:        "bad-sig",
			Attributes:  []string{"title"},
			Cardinality: 10,
			Signature:   pcsa.MustNew(16, 999),
		}}}},
		{"remove-then-oob", []Mutation{{Op: OpRemove, ID: 11}, {Op: OpRemove, ID: 11}}},
	}
	for _, tc := range cases {
		if _, err := e.ApplyChurn(tc.muts); err == nil {
			t.Errorf("%s: batch accepted", tc.name)
		}
		if got := universeJSON(t, e.Universe()); got != before {
			t.Fatalf("%s: refused batch mutated the universe", tc.name)
		}
	}
	// Sequential IDs: removing 11 twice is out of range the second time,
	// but removing 11 then 10 is two distinct sources.
	if _, err := e.ApplyChurn([]Mutation{{Op: OpRemove, ID: 11}, {Op: OpRemove, ID: 10}}); err != nil {
		t.Fatalf("sequential removes: %v", err)
	}
	if e.Universe().N() != 10 {
		t.Fatalf("universe size after two removes: %d", e.Universe().N())
	}
	if !e.Churned() {
		t.Fatal("Churned() false after a committed batch")
	}
}

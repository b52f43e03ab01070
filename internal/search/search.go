// Package search provides the combinatorial optimizers that solve µBE's
// constrained source-selection problem (paper §6). The paper's authors
// tried stochastic local search, particle swarm optimization, constrained
// simulated annealing and tabu search, and found tabu search the most
// robust and highest quality; this package implements all of them (plus a
// greedy marginal-gain baseline and an exhaustive oracle for tests) behind
// one Optimizer interface so the comparison can be re-run as an ablation.
//
// The search space is the set of source subsets S ⊆ U with |S| ≤ m.
// Constraints define permanently tabu regions (§6): required sources can
// never leave a candidate and excluded sources can never enter one, for
// every optimizer, so all solutions satisfy C ⊆ S by construction.
package search

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"ube/internal/model"
	"ube/internal/trace"
)

// Objective evaluates a candidate source set. It returns the overall
// quality Q(S) in [0,1] and whether S is feasible (its mediated schema is
// valid on the source constraints and subsumes the GA constraints). For
// infeasible sets the quality still reflects the non-matching QEFs, which
// gives optimizers a gradient through infeasible regions.
type Objective func(S *model.SourceSet) (quality float64, feasible bool)

// Delta describes how a candidate was derived from a base set:
// S = Base − {Drop} + {Add}, with -1 disabling either half. Optimizers
// that generate candidates by editing a current solution pass the edit
// along so a delta-aware objective can evaluate the candidate
// incrementally from cached per-base state instead of from scratch.
// A nil Base means the candidate was built some other way (a restart, a
// particle position) and carries no delta information.
//
// Base is owned by the optimizer and may be mutated after the evaluation
// returns; delta objectives must not retain it.
type Delta struct {
	Base *model.SourceSet
	Add  int
	Drop int
}

// fullDelta is the Delta of a candidate with no usable edit structure.
func fullDelta() Delta { return Delta{Add: -1, Drop: -1} }

// Progress is one solver progress report: the evaluation count and the
// best-so-far solution at the moment the best improved. Reports are
// emitted from the deterministic sequential best-so-far fold — never
// concurrently — so a ProgressFunc needs no locking against the solver,
// though it must not block (a slow consumer stalls the solve).
type Progress struct {
	// Evals is the number of objective evaluations spent so far.
	Evals int
	// BestQuality is the quality of the new best-so-far solution.
	BestQuality float64
	// Feasible reports whether that solution is feasible.
	Feasible bool
}

// ProgressFunc observes a running solve. It is a pure side channel: the
// solver's results never depend on it, so any callback (including none)
// leaves the solution byte-identical.
type ProgressFunc func(Progress)

// DeltaObjective is an Objective that also receives the candidate's
// derivation. S is always the fully materialized set — implementations
// may ignore d entirely, so any Objective lifts to a DeltaObjective —
// and the returned values must not depend on d: for a fixed S every
// (S, d) pair reports the same quality up to floating-point
// reassociation (≤1e-12). The delta is purely an evaluation hint.
type DeltaObjective func(S *model.SourceSet, d Delta) (quality float64, feasible bool)

// BoundFunc returns a cheap upper bound on a candidate's quality given
// its derivation, or ok == false when no cheap bound applies and the
// caller must evaluate exactly. Implementations must guarantee
// quality(S) ≤ bound for the same S — solvers skip exact evaluations on
// the strength of it — and must be deterministic and safe for
// concurrent calls, like the Objective.
type BoundFunc func(S *model.SourceSet, d Delta) (bound float64, ok bool)

// Problem is one instance of the §2.5 optimization problem as seen by an
// optimizer: the universe size, the selection bound m, and the constraint
// region. Everything domain-specific lives behind Objective.
type Problem struct {
	// N is the number of sources in the universe.
	N int
	// M is the maximum number of sources the user is willing to select.
	M int
	// Required are the sources that must appear in every candidate: the
	// source constraints plus the sources implied by GA constraints.
	Required []int
	// Excluded are sources that may never appear in a candidate.
	Excluded []int
	// Initial optionally warm-starts the search from a known good
	// candidate (e.g. the previous iteration's solution). Optimizers
	// sanitize it against the constraint region and use it for their
	// first start; later restarts remain random.
	Initial []int
	// Objective scores candidates.
	Objective Objective
	// DeltaObjective, when non-nil, is used instead of Objective and
	// additionally receives each candidate's derivation (base set plus
	// add/drop edit), enabling incremental evaluation. Objective must
	// still be set — it remains the definition of candidate quality and
	// the fallback for optimizers that predate deltas.
	DeltaObjective DeltaObjective
	// Bound, when non-nil, supplies an upper bound on candidate quality
	// that delta-aware optimizers (tabu, greedy) use to skip exact
	// evaluations that provably cannot change the outcome. Every skip
	// is still charged one evaluation against the budget and the
	// search.evals counter — only the expensive objective call is
	// avoided — so Solutions are byte-identical with and without a
	// bound; the bound.skips trace counter records how often pruning
	// fired. Optimizers without pruning support ignore it.
	Bound BoundFunc
	// MaxEvals bounds the number of objective evaluations (0 means each
	// optimizer's default). Ablations share a budget through this knob.
	MaxEvals int
	// Workers fans candidate evaluations across goroutines (≤1 =
	// sequential). The Objective must then be safe for concurrent
	// calls; the engine's objective is. Results are deterministic for a
	// fixed (problem, seed, Workers): scores are pure and the
	// best-so-far fold always happens in candidate order.
	Workers int
	// Ctx optionally cancels the search: optimizers check it at
	// iteration boundaries (never mid-candidate) and return their
	// best-so-far early. A nil Ctx never cancels, and for any ctx that
	// is never cancelled the run is byte-identical to a run without one
	// — cancellation can only truncate the search, not reroute it.
	Ctx context.Context
	// Progress, when non-nil, observes the solve: it is called from the
	// sequential best-so-far fold each time the best solution improves.
	// It is a pure side channel and never influences the result.
	Progress ProgressFunc
	// Tracer, when non-nil, records the solve's span tree: optimizers
	// open spans around their iteration structure (always from the
	// sequential control path, never from evaluation workers) and the
	// tracker reports evaluation counts into its counters. Like
	// Progress it is a pure side channel — a nil tracer costs only nil
	// checks and the solution is byte-identical either way.
	Tracer *trace.Tracer
}

// Validate checks the problem for structural errors.
func (p *Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("search: empty universe")
	}
	if p.M < 1 {
		return fmt.Errorf("search: m = %d < 1", p.M)
	}
	if len(p.Required) > p.M {
		return fmt.Errorf("search: %d required sources exceed m = %d", len(p.Required), p.M)
	}
	if p.Objective == nil {
		return fmt.Errorf("search: nil objective")
	}
	ex := make(map[int]bool, len(p.Excluded))
	for _, id := range p.Excluded {
		if id < 0 || id >= p.N {
			return fmt.Errorf("search: excluded source %d out of range", id)
		}
		ex[id] = true
	}
	seen := make(map[int]bool, len(p.Required))
	for _, id := range p.Required {
		if id < 0 || id >= p.N {
			return fmt.Errorf("search: required source %d out of range", id)
		}
		if ex[id] {
			return fmt.Errorf("search: source %d both required and excluded", id)
		}
		if seen[id] {
			return fmt.Errorf("search: duplicate required source %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Solution is an optimizer's result.
type Solution struct {
	// S is the chosen source set; never nil after a successful run.
	S *model.SourceSet
	// Quality is the objective value of S.
	Quality float64
	// Feasible reports whether S satisfied the matching-validity
	// conditions. When the constraint region admits no feasible set
	// within the budget, optimizers return their best-scoring candidate
	// with Feasible == false rather than nothing.
	Feasible bool
	// Evals is the number of objective evaluations spent.
	Evals int
}

// An Optimizer solves Problems. Implementations are deterministic given
// (problem, seed).
type Optimizer interface {
	// Name identifies the algorithm ("tabu", "sls", "anneal", "pso",
	// "greedy", "exhaustive").
	Name() string
	// Optimize runs the search. It panics on an invalid problem
	// (programmer error); budget exhaustion is not an error.
	Optimize(p *Problem, seed int64) Solution
}

// ByName returns a predefined optimizer with default parameters, or false
// for an unknown name.
func ByName(name string) (Optimizer, bool) {
	switch name {
	case "tabu":
		return NewTabu(), true
	case "sls":
		return NewSLS(), true
	case "anneal":
		return NewAnneal(), true
	case "pso":
		return NewPSO(), true
	case "greedy":
		return NewGreedy(), true
	case "exhaustive":
		return NewExhaustive(), true
	}
	return nil, false
}

// tracker wraps an Objective with evaluation counting, a budget, and
// best-so-far bookkeeping shared by all optimizers. When the problem
// supplies a DeltaObjective the tracker routes every evaluation through
// it, passing whatever derivation the optimizer reported (or none); the
// plain Objective remains the path for delta-unaware problems, so
// existing callers and tests behave exactly as before.
type tracker struct {
	obj      Objective
	dobj     DeltaObjective
	ctx      context.Context
	progress ProgressFunc
	st       *trace.Stats
	budget   int
	evals    int
	best     *model.SourceSet
	bestQ    float64
	feasible bool
}

func newTracker(p *Problem, defaultBudget int) *tracker {
	b := p.MaxEvals
	if b <= 0 {
		b = defaultBudget
	}
	return &tracker{obj: p.Objective, dobj: p.DeltaObjective, ctx: p.Ctx, progress: p.Progress, st: p.Tracer.Stats(), budget: b}
}

// exhausted reports whether the evaluation budget is spent or the
// problem's context has been cancelled. Every optimizer consults it at
// iteration boundaries, so cancellation stops a solve promptly while an
// uncancelled context changes nothing.
func (t *tracker) exhausted() bool {
	return t.cancelled() || t.evals >= t.budget
}

// cancelled reports whether the problem's context has been cancelled; a
// nil context never cancels.
func (t *tracker) cancelled() bool {
	return t.ctx != nil && t.ctx.Err() != nil
}

// score dispatches one evaluation to the delta objective when available.
func (t *tracker) score(S *model.SourceSet, d Delta) (float64, bool) {
	if t.dobj != nil {
		return t.dobj(S, d)
	}
	return t.obj(S)
}

// eval scores S with no delta information, updating the best-so-far. A
// feasible solution always beats an infeasible one regardless of raw
// quality.
func (t *tracker) eval(S *model.SourceSet) (float64, bool) {
	return t.evalDelta(S, fullDelta())
}

// evalDelta scores S given its derivation from a base set.
func (t *tracker) evalDelta(S *model.SourceSet, d Delta) (float64, bool) {
	t.evals++
	q, ok := t.score(S, d)
	t.record(S, q, ok)
	return q, ok
}

// batchEval is batchEvalDelta for candidates without delta information.
func (t *tracker) batchEval(p *Problem, cands []*model.SourceSet) ([]float64, []bool, int) {
	return t.batchEvalDelta(p, cands, nil)
}

// batchEvalDelta scores a batch of candidates, fanning the objective calls
// across p.Workers goroutines, then folds tracker updates sequentially in
// candidate order so ties resolve identically at any parallelism. deltas,
// when non-nil, is parallel to cands and carries each candidate's
// derivation. The batch is truncated to the remaining budget. Returned
// slices are parallel to the (possibly truncated) batch; the int is the
// evaluated count.
func (t *tracker) batchEvalDelta(p *Problem, cands []*model.SourceSet, deltas []Delta) ([]float64, []bool, int) {
	return t.batchEvalDeltaBound(p, cands, deltas, nil, nil)
}

// batchEvalDeltaBound is batchEvalDelta with bound pruning: skip and
// bounds, when non-nil, are parallel to cands, and a candidate with
// skip[i] set reports (bounds[i], false) instead of calling the
// objective. A skipped candidate still costs one evaluation from the
// budget and the search.evals counter — the optimizer's eval accounting
// is identical with and without pruning — and additionally counts one
// bound.skips. Callers are responsible for the bit-safety precondition:
// only skip when a feasible incumbent exists and bounds[i] ≤ the
// pre-batch best quality, so record() provably ignores the substituted
// result exactly as it would have ignored the exact one.
func (t *tracker) batchEvalDeltaBound(p *Problem, cands []*model.SourceSet, deltas []Delta, skip []bool, bounds []float64) ([]float64, []bool, int) {
	if left := t.budget - t.evals; len(cands) > left {
		cands = cands[:max(left, 0)]
	}
	// Cancellation boundary: a batch is the unit of work between
	// iteration-boundary checks, so refusing a whole batch here stops a
	// cancelled solve before it fans out more candidate evaluations.
	// For an uncancelled context this changes nothing.
	if t.cancelled() {
		return nil, nil, 0
	}
	if len(cands) == 0 {
		return nil, nil, 0
	}
	t.st.Add(trace.CSearchBatches, 1)
	delta := func(i int) Delta {
		if deltas == nil {
			return fullDelta()
		}
		return deltas[i]
	}
	qs := make([]float64, len(cands))
	oks := make([]bool, len(cands))
	eval1 := func(i int) {
		if skip != nil && skip[i] {
			qs[i], oks[i] = bounds[i], false
			return
		}
		qs[i], oks[i] = t.score(cands[i], delta(i))
	}
	workers := p.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			eval1(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) {
						return
					}
					eval1(i)
				}
			}()
		}
		wg.Wait()
	}
	// Sequential fold keeps best-so-far deterministic.
	var skips int64
	for i, c := range cands {
		t.evals++
		if skip != nil && skip[i] {
			skips++
		}
		t.record(c, qs[i], oks[i])
	}
	t.st.Add(trace.CBoundSkips, skips)
	return qs, oks, len(cands)
}

// skipDelta accounts one candidate whose exact evaluation was pruned:
// it charges the budget and search.evals like an exact evaluation, adds
// one bound.skips, and feeds (ub, false) through record. Callers must
// only prune when a feasible incumbent exists and ub ≤ t.bestQ — then
// the substituted result provably leaves the best-so-far untouched for
// any (q ≤ ub, ok) the exact evaluation could have produced.
func (t *tracker) skipDelta(S *model.SourceSet, ub float64) {
	t.evals++
	t.st.Add(trace.CBoundSkips, 1)
	t.record(S, ub, false)
}

// record applies one evaluation result to the best-so-far bookkeeping.
// It runs once per evaluation, always from the sequential fold, so the
// evaluation counter mirrors t.evals exactly.
func (t *tracker) record(S *model.SourceSet, q float64, ok bool) {
	t.st.Add(trace.CSearchEvals, 1)
	better := false
	switch {
	case t.best == nil:
		better = true
	case ok && !t.feasible:
		better = true
	case ok == t.feasible && q > t.bestQ:
		better = true
	}
	if better {
		t.best = S.Clone()
		t.bestQ = q
		t.feasible = ok
		if t.progress != nil {
			t.progress(Progress{Evals: t.evals, BestQuality: t.bestQ, Feasible: t.feasible})
		}
	}
}

func (t *tracker) solution() Solution {
	return Solution{S: t.best, Quality: t.bestQ, Feasible: t.feasible, Evals: t.evals}
}

// candidatePool returns the selectable source IDs: everything except the
// excluded, in ascending order.
func candidatePool(p *Problem) []int {
	ex := make(map[int]bool, len(p.Excluded))
	for _, id := range p.Excluded {
		ex[id] = true
	}
	pool := make([]int, 0, p.N-len(p.Excluded))
	for id := 0; id < p.N; id++ {
		if !ex[id] {
			pool = append(pool, id)
		}
	}
	return pool
}

// warmStart sanitizes p.Initial into a valid candidate: required sources
// first, then initial members that are selectable, truncated to m. It
// returns nil when no initial candidate was provided.
func warmStart(p *Problem, pool []int) *model.SourceSet {
	if len(p.Initial) == 0 {
		return nil
	}
	s := model.NewSourceSet(p.N)
	for _, id := range p.Required {
		s.Add(id)
	}
	selectable := make(map[int]bool, len(pool))
	for _, id := range pool {
		selectable[id] = true
	}
	for _, id := range p.Initial {
		if s.Len() >= p.M {
			break
		}
		if id >= 0 && id < p.N && selectable[id] {
			s.Add(id)
		}
	}
	if s.Len() == 0 {
		return nil
	}
	return s
}

// randomStart builds a random candidate: the required sources plus a
// uniform sample of free sources up to size m.
func randomStart(p *Problem, pool []int, rng *rand.Rand) *model.SourceSet {
	s := model.NewSourceSet(p.N)
	for _, id := range p.Required {
		s.Add(id)
	}
	free := make([]int, 0, len(pool))
	for _, id := range pool {
		if !s.Has(id) {
			free = append(free, id)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, id := range free {
		if s.Len() >= p.M {
			break
		}
		s.Add(id)
	}
	return s
}

// removable returns the members of S that are not required, sorted.
func removable(S *model.SourceSet, required []int) []int {
	req := make(map[int]bool, len(required))
	for _, id := range required {
		req[id] = true
	}
	var out []int
	S.ForEach(func(id int) {
		if !req[id] {
			out = append(out, id)
		}
	})
	sort.Ints(out)
	return out
}

// addable returns the pool sources not in S, sorted.
func addable(S *model.SourceSet, pool []int) []int {
	out := make([]int, 0, len(pool))
	for _, id := range pool {
		if !S.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

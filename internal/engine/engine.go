// Package engine composes the µBE system (Figure 2 of the paper): it wires
// the schema matcher, the QEF framework and a combinatorial optimizer into
// a single Solve entry point, and hosts the iterative feedback Session
// through which users guide the search (§6).
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ube/internal/cluster"
	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/strsim"
	"ube/internal/trace"
)

// matrixLimit caps the vocabulary size for the dense precomputed
// similarity matrix (n² float32 cells — 4096 names cost 64 MiB).
// Beyond it the engine builds a θ-sparse neighbor table per solve
// threshold from the strsim blocking index; only when the measure has
// no sound blocking scheme (a non-n-gram measure) does it fall back to
// the lazy pairwise cache.
const matrixLimit = 4096

// Problem is one iteration's optimization problem (§2.5): the selection
// bound, clustering parameters, constraints, QEF weights and solver choice.
type Problem struct {
	// MaxSources is m, the maximum number of sources to select.
	MaxSources int
	// Theta is the matching-quality threshold θ (paper default 0.65).
	Theta float64
	// Beta is the minimum size β of non-constraint GAs (default 2).
	Beta int
	// Constraints are the user's source/GA constraints (and exclusions).
	Constraints model.Constraints
	// Weights assigns importance to every QEF by name; they must cover
	// exactly the configured QEFs and sum to 1.
	Weights qef.Weights
	// Characteristics configures one QEF per named source
	// characteristic, e.g. {"mttf": qef.WSum{}}.
	Characteristics map[string]qef.Aggregator
	// ExtraQEFs are caller-defined quality dimensions beyond the
	// built-in and characteristic QEFs — the §1 "define new quality
	// metrics" feedback move. Each must have a unique name covered by
	// Weights.
	ExtraQEFs []qef.QEF
	// InitialSources optionally warm-starts the solver from a known
	// candidate, typically the previous iteration's solution. Sessions
	// set this automatically.
	InitialSources []int
	// Optimizer picks the solver; nil means tabu search, the paper's
	// choice.
	Optimizer search.Optimizer
	// Seed drives the solver's randomness.
	Seed int64
	// MaxEvals optionally bounds objective evaluations (0 = solver
	// default).
	MaxEvals int
	// Workers fans candidate evaluations across goroutines inside the
	// solver (≤1 = sequential). Solves are deterministic for a fixed
	// (problem, seed, Workers).
	Workers int
	// Progress, when non-nil, observes the solve: the solver calls it
	// from its deterministic best-so-far fold each time the incumbent
	// improves. It is a pure side channel (the server streams it over
	// SSE) and never influences the result; it must not block.
	Progress search.ProgressFunc
	// Trace, when non-nil, records the solve's span tree and work
	// counters (see internal/trace). Like Progress it is a pure side
	// channel and never influences the result: spans are opened only
	// from the sequential control path, and parallel workers contribute
	// only through atomic counters.
	Trace *trace.Tracer
}

// MatchQEFName is the QEF name of the matching quality F1.
const MatchQEFName = "match"

// DefaultProblem returns the paper's experimental defaults (§7.1): m=20,
// θ=0.65, β=2, weights 0.25/0.25/0.2/0.15/0.15 for match, cardinality,
// coverage, redundancy and MTTF (wsum-aggregated).
func DefaultProblem() Problem {
	return Problem{
		MaxSources:      20,
		Theta:           0.65,
		Beta:            2,
		Weights:         qef.Weights{MatchQEFName: 0.25, "card": 0.25, "coverage": 0.2, "redundancy": 0.15, "mttf": 0.15},
		Characteristics: map[string]qef.Aggregator{"mttf": qef.WSum{}},
		Seed:            1,
	}
}

// Solution is a solved iteration: the chosen sources, the generated
// mediated schema and the quality accounting the UI presents.
type Solution struct {
	// Sources is the chosen set S in ascending ID order.
	Sources []int
	// Set is S as a set.
	Set *model.SourceSet
	// Schema is the automatically generated mediated schema on S; nil
	// if no feasible solution was found.
	Schema *model.MediatedSchema
	// Match carries the per-GA quality detail of the final clustering.
	Match cluster.Result
	// Quality is the overall objective Q(S).
	Quality float64
	// Breakdown is each QEF's raw score on S, keyed by QEF name.
	Breakdown map[string]float64
	// Feasible reports whether the schema satisfies the constraints.
	Feasible bool
	// Evals counts objective evaluations spent by the solver.
	Evals int
	// MatchCache reports the solve's component memo traffic: lookups of
	// θ-components that hit or missed, and entries evicted (all zero when
	// memoization is disabled).
	MatchCache CacheStats
	// Elapsed is the wall-clock solve time.
	//ube:operational timing metadata for humans; replay comparisons zero it
	Elapsed time.Duration
}

// Engine holds the per-universe state shared across iterations: the QEF
// context (signature unions, characteristic ranges), the interned
// similarity vocabulary and the clustering fast-path indexes.
type Engine struct {
	u      *model.Universe
	ctx    *qef.Context
	sim    *strsim.Cache
	scores strsim.Scorer
	matrix *strsim.Matrix // nil when the vocabulary exceeds matrixLimit

	// nameIDs maps (source, attribute index) to the interned name ID so
	// the matcher skips per-call interning.
	nameIDs [][]int
	// neighborsByTheta caches the ≥θ name adjacency index per threshold.
	neighborsByTheta map[float64][][]int
	// sparseByTheta caches the θ-sparse scorer per threshold on large
	// vocabularies; a stored nil means the measure does not support
	// blocking and the θ falls back to the lazy cache.
	sparseByTheta map[float64]*strsim.SparseScores
	// Churn state (see churn.go), nil/false until the first ApplyChurn
	// so never-churned engines keep the exact pre-churn paths and costs.
	// churned switches sparse() from batch builds to the dynamic per-θ
	// indexes; matrixDirty marks the dense matrix for lazy growth.
	churned     bool
	matrixDirty bool
	// dynByTheta holds the incrementally maintained blocking index per
	// threshold; a stored nil means the measure doesn't support blocking.
	dynByTheta map[float64]*strsim.DynSparse
	// dynCharged remembers how much of each dynamic index's cumulative
	// work counters were already charged to a solve's trace.
	dynCharged map[float64]strsim.BlockStats
	// nameRefs counts, per interned name ID, the live attribute slots
	// using that name; 0→1 and 1→0 transitions drive index maintenance.
	nameRefs map[int]int
	// sigCounter maintains the union of all cooperative signatures so
	// the QEF context can be rebased without rescanning the universe.
	sigCounter *pcsa.UnionCounter
	// scratch pools the F1 path's reusable working memory; one per
	// concurrent evaluation worker.
	scratch sync.Pool

	noMemo bool // WithoutMatchCache: no per-solve component memo
	// memoLimit overrides componentMemoLimit when positive (tests).
	memoLimit int

	// faults arms the engine's injection points (solve.cancel-midway,
	// snapshot.evict); nil outside chaos runs. See internal/faultinject.
	faults *faultinject.Injector
}

// CacheStats counts the component memo's traffic in one solve. Hits and
// Misses cover the lookups of components where a source has two slots
// (the others are decided in closed form); Evictions counts entries
// dropped to keep the memo bounded.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// Option configures engine construction.
type Option func(*options)

type options struct {
	measure     strsim.Measure
	noCache     bool
	faults      *faultinject.Injector
	forceSparse bool
}

// WithMeasure overrides the attribute similarity measure (default: the
// paper's Jaccard over 3-grams).
func WithMeasure(m strsim.Measure) Option {
	return func(o *options) { o.measure = m }
}

// WithoutMatchCache disables the per-solve component memo, so every
// candidate clusters all of its components; it exists for ablation
// benchmarks and differential tests. Results are identical either way.
func WithoutMatchCache() Option {
	return func(o *options) { o.noCache = true }
}

// WithSparseScores forces the θ-sparse blocking path even when the
// vocabulary would fit the dense matrix. Solves are bit-identical to the
// dense path because the blocking index has perfect recall; the option
// exists so differential tests and the scale experiment can compare the
// two paths on one universe.
func WithSparseScores() Option {
	return func(o *options) { o.forceSparse = true }
}

// WithFaultInjector arms the engine's named fault-injection points
// (solve.cancel-midway, snapshot.evict) with a chaos plan; see
// internal/faultinject. Injected faults never change solve results:
// cancellation truncates a search exactly like a caller cancellation,
// and snapshot eviction only forces a pure cache rebuild.
func WithFaultInjector(in *faultinject.Injector) Option {
	return func(o *options) { o.faults = in }
}

// New builds an engine over a universe: validates it, interns every
// attribute name and precomputes the similarity matrix when the vocabulary
// is small enough.
func New(u *model.Universe, opts ...Option) (*Engine, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	ctx, err := qef.NewContext(u)
	if err != nil {
		return nil, err
	}
	sim := strsim.NewCache(o.measure)
	nameIDs := make([][]int, len(u.Sources))
	for i := range u.Sources {
		attrs := u.Sources[i].Attributes
		nameIDs[i] = make([]int, len(attrs))
		for a, name := range attrs {
			nameIDs[i][a] = sim.Intern(name)
		}
	}
	e := &Engine{
		u:                u,
		ctx:              ctx,
		sim:              sim,
		nameIDs:          nameIDs,
		neighborsByTheta: make(map[float64][][]int),
		sparseByTheta:    make(map[float64]*strsim.SparseScores),
		noMemo:           o.noCache,
		faults:           o.faults,
	}
	e.scratch.New = func() any { return &evalScratch{} }
	if sim.Len() <= matrixLimit && !o.forceSparse {
		m, err := sim.BuildMatrix()
		if err != nil {
			return nil, err
		}
		e.matrix = m
		e.scores = m
	} else {
		// Large vocabulary: no dense matrix. Solves route through a
		// per-θ sparse scorer built lazily (see scoresFor); e.scores
		// remains the measure-exact fallback.
		e.scores = sim
	}
	return e, nil
}

// Universe returns the engine's universe.
func (e *Engine) Universe() *model.Universe { return e.u }

// Context returns the engine's QEF context.
func (e *Engine) Context() *qef.Context { return e.ctx }

// VocabularySize reports the number of distinct normalized attribute names.
func (e *Engine) VocabularySize() int { return e.sim.Len() }

// validate checks a problem against the universe.
func (e *Engine) validate(p *Problem) error {
	if p.MaxSources < 1 {
		return fmt.Errorf("engine: MaxSources = %d", p.MaxSources)
	}
	if p.MaxSources > e.u.N() {
		return fmt.Errorf("engine: MaxSources %d exceeds universe size %d", p.MaxSources, e.u.N())
	}
	if p.Theta < 0 || p.Theta > 1 {
		return fmt.Errorf("engine: theta %v outside [0,1]", p.Theta)
	}
	if p.Beta < 1 {
		return fmt.Errorf("engine: beta %d < 1", p.Beta)
	}
	if err := p.Constraints.Validate(e.u); err != nil {
		return err
	}
	if req := p.Constraints.ImpliedSources(); len(req) > p.MaxSources {
		return fmt.Errorf("engine: constraints imply %d sources, more than m = %d", len(req), p.MaxSources)
	}
	if n := e.maxSlots(p.MaxSources); n >= cluster.MaxSlots {
		return fmt.Errorf("engine: the %d largest sources carry %d attribute slots, clustering takes fewer than %d", p.MaxSources, n, cluster.MaxSlots)
	}
	return nil
}

// maxSlots bounds the attribute slots of any m-source candidate set: the
// slots of the m largest sources. That is the largest θ-component a solve
// can cluster, since without an adjacency index the whole set is one
// component. When the universe as a whole has fewer than
// cluster.MaxSlots slots, it returns that total instead.
func (e *Engine) maxSlots(m int) int {
	total := 0
	for i := 0; i < e.u.N(); i++ {
		total += len(e.u.Source(i).Attributes)
	}
	if total < cluster.MaxSlots {
		return total
	}
	sizes := make([]int, e.u.N())
	for i := range sizes {
		sizes[i] = len(e.u.Source(i).Attributes)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	n := 0
	for _, s := range sizes[:m] {
		n += s
	}
	return n
}

// buildQEFs assembles the QEF list for a problem: the data QEFs, one
// Characteristic QEF per configured characteristic, and any caller-defined
// extra QEFs.
func (e *Engine) buildQEFs(p *Problem) ([]qef.QEF, error) {
	qefs := []qef.QEF{qef.Card{}, qef.Coverage{}, qef.Redundancy{}}
	// Characteristic QEFs in sorted name order: the composite sums its
	// terms in slice order, and float addition order must not depend on
	// map iteration.
	chars := make([]string, 0, len(p.Characteristics))
	for name := range p.Characteristics {
		chars = append(chars, name)
	}
	sort.Strings(chars)
	for _, name := range chars {
		agg := p.Characteristics[name]
		if agg == nil {
			return nil, fmt.Errorf("engine: nil aggregator for characteristic %q", name)
		}
		if _, _, ok := e.ctx.CharRange(name); !ok {
			return nil, fmt.Errorf("engine: no source defines characteristic %q", name)
		}
		qefs = append(qefs, qef.Characteristic{Char: name, Agg: agg})
	}
	seen := make(map[string]bool, len(qefs)+len(p.ExtraQEFs)+1)
	seen[MatchQEFName] = true
	for _, q := range qefs {
		seen[q.Name()] = true
	}
	for _, q := range p.ExtraQEFs {
		if q == nil {
			return nil, fmt.Errorf("engine: nil extra QEF")
		}
		if seen[q.Name()] {
			return nil, fmt.Errorf("engine: duplicate QEF name %q", q.Name())
		}
		seen[q.Name()] = true
		qefs = append(qefs, q)
	}
	return qefs, nil
}

// Solve runs one µBE iteration: it builds the objective from the problem's
// QEFs and weights, dispatches the optimizer over the constrained search
// space, and re-runs the matcher on the winning set to produce the full
// mediated schema.
func (e *Engine) Solve(p *Problem) (*Solution, error) {
	return e.SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation: ctx is plumbed into the
// optimizer, which checks it at iteration boundaries and stops promptly
// when it is cancelled, in which case SolveContext returns ctx.Err()
// instead of a solution. A nil ctx behaves like context.Background().
// For any ctx that is never cancelled the solve is byte-identical to
// Solve — cancellation can only truncate a search, never reroute it.
func (e *Engine) SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	//ube:nondeterministic-ok wall-clock Elapsed reporting only; never feeds the objective
	start := time.Now()
	tr := p.Trace
	root := tr.Begin("solve")
	defer tr.End(root)
	setupSpan := tr.Begin("setup")
	if err := e.validate(p); err != nil {
		return nil, err
	}
	qefs, err := e.buildQEFs(p)
	if err != nil {
		return nil, err
	}
	// The weight map must cover the data/characteristic QEFs plus F1.
	names := append([]qef.QEF{fakeMatchQEF{}}, qefs...)
	if err := p.Weights.Validate(names); err != nil {
		return nil, err
	}
	// The composite covers every QEF but F1 with weights rescaled to sum
	// to 1; the objective multiplies it back by (1 − w_match) so each
	// QEF keeps its user-assigned weight. With w_match == 1 there is no
	// composite at all.
	wMatch := p.Weights[MatchQEFName]
	wRest := 1 - wMatch
	var comp *qef.Composite
	if wRest > weightEpsilon {
		comp, err = qef.NewComposite(qefs, restWeights(p.Weights))
		if err != nil {
			return nil, err
		}
	} else {
		wRest = 0
		comp, err = qef.NewComposite(qefs, uniformWeights(qefs))
		if err != nil {
			return nil, err
		}
	}

	scores, nbrs := e.scoresFor(p.Theta, tr.Stats())
	clusterCfg := cluster.Config{
		Theta:     p.Theta,
		Beta:      p.Beta,
		Sim:       e.sim,
		Scores:    scores,
		Neighbors: nbrs,
		NameIDs:   e.nameIDs,
		Stats:     tr.Stats(),
	}
	mt := e.newMatcher(clusterCfg, p.Constraints.Sources, p.Constraints.GAs)

	objective := func(S *model.SourceSet) (float64, bool) {
		f1, valid := mt.f1(S)
		q := wMatch * f1
		if wRest > 0 {
			clusterCfg.Stats.Add(trace.CQEFFull, 1)
			q += wRest * comp.Eval(e.ctx, S)
		}
		return q, valid
	}

	opt := p.Optimizer
	if opt == nil {
		opt = search.NewTabu()
	}
	dobj, bound := e.deltaObjective(comp, wMatch, wRest, mt)
	prob := &search.Problem{
		N:              e.u.N(),
		M:              p.MaxSources,
		Required:       p.Constraints.ImpliedSources(),
		Excluded:       p.Constraints.Exclude,
		Initial:        p.InitialSources,
		Objective:      objective,
		DeltaObjective: dobj,
		MaxEvals:       p.MaxEvals,
		Workers:        p.Workers,
		Ctx:            ctx,
		Bound:          bound,
		Progress:       p.Progress,
		Tracer:         p.Trace,
	}
	if armedCtx, cancel := e.armSolveFaults(ctx, prob); cancel != nil {
		defer cancel()
		ctx = armedCtx
		prob.Ctx = armedCtx
	}
	tr.End(setupSpan)
	searchSpan := tr.Begin("search")
	res := opt.Optimize(prob, p.Seed)
	tr.End(searchSpan)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// The optimizer stopped early on cancellation; its truncated
			// best-so-far is not a solve result.
			return nil, err
		}
	}

	sol := &Solution{
		Sources:    res.S.Elements(),
		Set:        res.S,
		Quality:    res.Quality,
		Feasible:   res.Feasible,
		Evals:      res.Evals,
		MatchCache: mt.stats(),
	}
	// Compose the full schema of the final set through the same path; its
	// components are memoized from the search.
	finalSpan := tr.Begin("final")
	final := mt.result(res.S)
	sol.Match = final
	sol.Schema = final.Schema
	sol.Breakdown = comp.Breakdown(e.ctx, res.S)
	sol.Breakdown[MatchQEFName] = final.Quality
	tr.End(finalSpan)
	//ube:nondeterministic-ok wall-clock Elapsed reporting only; never feeds the objective
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// weightEpsilon is the smallest non-match weight mass treated as nonzero.
const weightEpsilon = 1e-12

// scoresFor returns the scorer and ≥θ name adjacency a solve at theta
// should cluster with: the dense matrix when the vocabulary fits,
// otherwise a θ-sparse table built lazily from the blocking index. A
// measure with no sound blocking scheme (or a θ outside the blockable
// range) falls back to the lazy pairwise cache with no adjacency index
// — the pre-blocking behavior. Every choice clusters bit-identically to
// the cluster package's Algorithm 1 transcription over the same scores
// whenever the adjacency index has perfect recall.
func (e *Engine) scoresFor(theta float64, st *trace.Stats) (strsim.Scorer, [][]int) {
	e.refreshMatrix()
	if e.matrix != nil {
		return e.matrix, e.neighbors(theta)
	}
	sp := e.sparse(theta, st)
	if sp == nil {
		return e.scores, nil
	}
	return sp, e.neighbors(theta)
}

// refreshMatrix lazily grows (or drops) the dense similarity matrix
// after churn mutated the vocabulary, once per churn burst, paid by the
// first solve. Intern IDs are append-only, so the matrix only gains the
// rows and columns of names interned since it was built; a burst that
// interned no new name keeps the same matrix. A vocabulary grown past
// matrixLimit demotes the engine to the θ-sparse path permanently — the
// path choice is sticky, matching the construction-time rule. Cached
// neighbor lists survive unless the matrix changed.
func (e *Engine) refreshMatrix() {
	if !e.matrixDirty {
		return
	}
	e.matrixDirty = false
	if e.sim.Len() <= matrixLimit {
		if m, err := e.sim.ExtendMatrix(e.matrix); err == nil {
			if m != e.matrix {
				clear(e.neighborsByTheta)
			}
			e.matrix = m
			e.scores = m
			return
		}
	}
	// The demoted engine scores through another table: nothing built on
	// the matrix carries over.
	clear(e.neighborsByTheta)
	e.matrix = nil
	e.scores = e.sim
}

// sparse returns (building and caching on first use) the θ-sparse
// scorer for a large vocabulary, or nil when the measure doesn't
// support blocking. The build's deterministic work counts are charged
// to the solve that triggered it (block.* counters); later solves at
// the same θ reuse the table for free. On a churned engine the table
// is frozen from the incrementally maintained dynamic index instead of
// batch-built, and only the work done since the last freeze is charged.
func (e *Engine) sparse(theta float64, st *trace.Stats) *strsim.SparseScores {
	if sp, ok := e.sparseByTheta[theta]; ok {
		return sp
	}
	if e.churned {
		return e.sparseFromDyn(theta, st)
	}
	sp, bs, err := e.sim.BuildSparse(theta, strsim.BlockConfig{})
	if err != nil {
		sp = nil
	}
	e.sparseByTheta[theta] = sp
	st.Add(trace.CBlockProbes, bs.Probes)
	st.Add(trace.CBlockCandidates, bs.Candidates)
	st.Add(trace.CBlockPruned, bs.Pruned)
	return sp
}

// sparseFromDyn freezes the dynamic blocking index for θ, creating it
// on first use by inserting every live name in ascending ID order (so
// construction is deterministic regardless of churn history).
func (e *Engine) sparseFromDyn(theta float64, st *trace.Stats) *strsim.SparseScores {
	d, ok := e.dynByTheta[theta]
	if !ok {
		nd, err := strsim.NewDynSparse(e.sim, theta)
		if err != nil {
			nd = nil
		} else {
			ids := make([]int, 0, len(e.nameRefs))
			for id := range e.nameRefs {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				if err := nd.Insert(id); err != nil {
					panic(fmt.Sprintf("engine: churn desync: seed θ=%v index with name %d: %v", theta, id, err))
				}
			}
		}
		e.dynByTheta[theta] = nd
		d = nd
	}
	if d == nil {
		e.sparseByTheta[theta] = nil
		return nil
	}
	sp := d.Freeze()
	e.sparseByTheta[theta] = sp
	bs, charged := d.Stats(), e.dynCharged[theta]
	st.Add(trace.CBlockProbes, bs.Probes-charged.Probes)
	st.Add(trace.CBlockCandidates, bs.Candidates-charged.Candidates)
	st.Add(trace.CBlockPruned, bs.Pruned-charged.Pruned)
	e.dynCharged[theta] = bs
	return sp
}

// neighbors returns (building and caching on first use) the ≥θ name
// adjacency index for the engine's vocabulary — from the dense matrix
// when it exists, else from the θ-sparse table (which must already be
// cached for this θ) — or nil when neither is available.
func (e *Engine) neighbors(theta float64) [][]int {
	if n, ok := e.neighborsByTheta[theta]; ok {
		return n
	}
	var n [][]int
	switch {
	case e.matrix != nil:
		n = e.matrix.Neighbors(theta)
	case e.sparseByTheta[theta] != nil:
		n = e.sparseByTheta[theta].Neighbors(theta)
	default:
		return nil
	}
	e.neighborsByTheta[theta] = n
	return n
}

// restWeights strips the match weight and rescales the remainder to sum
// to 1 so the inner composite validates; the objective multiplies the
// composite back by (1 − w_match).
func restWeights(w qef.Weights) qef.Weights {
	out := make(qef.Weights, len(w))
	//ube:nondeterministic-ok key-for-key map filter is order-independent; Normalized sums in sorted key order
	for k, v := range w {
		if k != MatchQEFName {
			out[k] = v
		}
	}
	return out.Normalized()
}

// uniformWeights gives every QEF equal weight; used only to build a
// breakdown-capable composite when w_match == 1.
func uniformWeights(qefs []qef.QEF) qef.Weights {
	out := make(qef.Weights, len(qefs))
	for _, q := range qefs {
		out[q.Name()] = 1 / float64(len(qefs))
	}
	return out
}

// fakeMatchQEF lets Weights.Validate account for the F1 weight; it is
// never evaluated.
type fakeMatchQEF struct{}

func (fakeMatchQEF) Name() string { return MatchQEFName }
func (fakeMatchQEF) Eval(*qef.Context, *model.SourceSet) float64 {
	panic("engine: the match QEF is evaluated by the engine, not the composite")
}

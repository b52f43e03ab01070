package engine

import (
	"sync"

	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// This file holds the incremental half of the evaluation pipeline: the
// per-solve incumbent cache and the delta-aware objective built on it.
// Solvers derive most candidates by editing one incumbent set; the engine
// captures that incumbent's evaluation state once (qef.Base: integer sums
// plus the any/multi bitmaps of its PCSA signatures) and evaluates every
// add, drop and swap off it. F1 takes the component path for every move
// (match.go). See DESIGN.md ("Evaluation pipeline performance").

// incumbent is the per-solve cache of one base set's evaluation state.
// It holds a single slot: solvers walk one incumbent at a time, so by the
// time a new base appears the old state is dead. The state itself is
// immutable — workers that share it only read — and the slot is checked
// and refilled under its mutex, so concurrent evaluation workers build
// each base once and always evaluate against a complete state.
type incumbent struct {
	mu   sync.Mutex
	base *qef.Base
}

// lookup returns the state of set, building and publishing it when the
// slot holds another base. It is the snapshot.evict injection point: an
// eviction empties the slot first, which only forces a rebuild and can
// never change results — exactly the invariant the chaos suite checks by
// firing it mid-solve.
func (inc *incumbent) lookup(e *Engine, set *model.SourceSet, st *trace.Stats) *qef.Base {
	evict := e.faults.Fire(faultinject.SnapshotEvict) != nil
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if evict {
		inc.base = nil
	}
	if inc.base == nil || !inc.base.Of(set) {
		inc.base = qef.NewBase(e.ctx, set, st)
	}
	return inc.base
}

// editable reports whether d is an edit of its base that the incumbent
// path evaluates: an add of a non-member, a drop of a member, or both.
func editable(d search.Delta) bool {
	return d.Base != nil && (d.Add < 0 || !d.Base.Has(d.Add)) && (d.Drop < 0 || d.Base.Has(d.Drop))
}

// deltaObjective builds the solve's incremental objective and its
// companion upper bound. Matching quality F1 comes from the solve's
// component path (mt); the composite QEF side evaluates every edit of a
// base off the incumbent's state, bit-identical to the full composite
// evaluation (see TestDeltaObjectiveMatchesFull).
//
// The bound closure shares the incumbent cache: it computes the
// composite term exactly (the cheap part — no clustering) and bounds
// only F1 by its range maximum 1, so bound ≥ quality holds rigorously:
// q = w_match·f1 + w_rest·comp ≤ w_match·1 + w_rest·comp. A PCSA-side
// shortcut was deliberately rejected — sketch-union estimates are not
// subadditive, so est(A∪B) ≤ est(A)+est(B) does NOT hold and any bound
// built on it would be unsound.
func (e *Engine) deltaObjective(comp *qef.Composite, wMatch, wRest float64, mt *matcher) (search.DeltaObjective, search.BoundFunc) {
	st := mt.cfg.Stats
	inc := &incumbent{}
	// rest is the composite term of S; d's base, when it is an edit,
	// supplies it from the incumbent's state.
	rest := func(S *model.SourceSet, d search.Delta) float64 {
		if !editable(d) {
			st.Add(trace.CQEFFull, 1)
			return comp.Eval(e.ctx, S)
		}
		dq := comp.EvalEdit(e.ctx, inc.lookup(e, d.Base, st), d.Drop, d.Add, S)
		if ubedebug.Enabled && ubedebug.ShouldAudit() {
			// Sampled delta≡full audit: the edit evaluation must agree
			// with the full composite evaluation bit for bit.
			full := comp.Eval(e.ctx, S)
			//ube:float-exact the edit path shares Eval's stats and fold, so the values are bit-identical
			ubedebug.Assert(dq == full,
				"engine: delta objective %v diverges from full evaluation %v on %v-%d+%d",
				dq, full, d.Base.Elements(), d.Drop, d.Add)
			ubedebug.CountAudit()
		}
		return dq
	}
	bound := func(S *model.SourceSet, d search.Delta) (float64, bool) {
		//ube:float-exact wRest is assigned the literal 0 sentinel by Solve when w_match == 1
		if wRest == 0 {
			return wMatch, true
		}
		return wMatch + wRest*rest(S, d), true
	}
	dobj := func(S *model.SourceSet, d search.Delta) (float64, bool) {
		f1, valid := mt.f1(S)
		q := wMatch * f1
		//ube:float-exact wRest is assigned the literal 0 sentinel by Solve when w_match == 1
		if wRest == 0 {
			return q, valid
		}
		return q + wRest*rest(S, d), valid
	}
	return dobj, bound
}

package engine

import (
	"sync"

	"ube/internal/faultinject"
	"ube/internal/floats"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// This file holds the incremental half of the evaluation pipeline: the
// per-solve incumbent cache and the delta-aware objective built on it.
// Solvers derive most candidates by editing one incumbent set; the engine
// snapshots that incumbent's evaluation state once (QEF partial sums plus
// its unioned PCSA sketch) and evaluates every add-move off it by
// extending the snapshot with a single source. Drop and swap moves fall
// back to the ordinary full path. F1 takes the component path for every
// move (match.go). See DESIGN.md ("Evaluation pipeline performance").

// incumbent is the per-solve cache of one base set's evaluation state.
// It holds a single slot: solvers walk one incumbent at a time, so by the
// time a new base appears the old snapshot is dead. The snapshot itself
// is immutable — workers that share it only read (sketch extensions
// happen in pooled copies) — and the slot swap is mutex-guarded, so
// concurrent evaluation workers may race to refresh it but each always
// evaluates against a complete snapshot. Snapshot construction is pure,
// so a lost race wastes one pass and changes nothing.
type incumbent struct {
	mu   sync.Mutex
	snap *qef.BaseSnapshot
}

// lookup returns the cached snapshot when it matches base's key.
func (inc *incumbent) lookup(key string) *qef.BaseSnapshot {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.snap != nil && inc.snap.Key() == key {
		return inc.snap
	}
	return nil
}

// publish installs a freshly built snapshot as the incumbent.
func (inc *incumbent) publish(snap *qef.BaseSnapshot) {
	inc.mu.Lock()
	inc.snap = snap
	inc.mu.Unlock()
}

// discard drops the cached snapshot (the snapshot.evict injection
// point). Snapshot construction is pure, so an eviction only forces a
// rebuild and can never change results — which is exactly the invariant
// the chaos suite checks by firing this mid-solve.
func (inc *incumbent) discard() {
	inc.mu.Lock()
	inc.snap = nil
	inc.mu.Unlock()
}

// deltaObjective builds the solve's incremental objective and its
// companion upper bound. Matching quality F1 comes from the solve's
// component path (mt); the composite QEF side evaluates add-moves
// incrementally from the incumbent snapshot. For a fixed S the returned quality is independent
// of the delta up to float reassociation in the characteristic folds
// (≪1e-12, see TestDeltaObjectiveMatchesFull).
//
// The bound closure shares the snapshot cache and delta evaluator: it
// computes the composite term exactly (the cheap part — no clustering)
// and bounds only F1 by its range maximum 1, so bound ≥ quality holds
// rigorously: q = w_match·f1 + w_rest·comp ≤ w_match·1 + w_rest·comp.
// A PCSA-side shortcut was deliberately rejected — sketch-union
// estimates are not subadditive, so est(A∪B) ≤ est(A)+est(B) does NOT
// hold and any bound built on it would be unsound.
func (e *Engine) deltaObjective(comp *qef.Composite, wMatch, wRest float64, mt *matcher) (search.DeltaObjective, search.BoundFunc) {
	de := qef.NewDeltaEval(comp)
	st := mt.cfg.Stats
	de.Stats = st
	inc := &incumbent{}
	bound := func(S *model.SourceSet, d search.Delta) (float64, bool) {
		//ube:float-exact wRest is assigned the literal 0 sentinel by Solve when w_match == 1
		if wRest == 0 {
			return wMatch, true
		}
		if d.Base != nil && d.Add >= 0 && d.Drop < 0 && !d.Base.Has(d.Add) {
			key := d.Base.Key()
			snap := inc.lookup(key)
			if snap == nil {
				snap = de.Snapshot(e.ctx, d.Base)
				inc.publish(snap)
			}
			return wMatch + wRest*de.EvalAdd(e.ctx, snap, d.Add, S), true
		}
		st.Add(trace.CQEFFull, 1)
		return wMatch + wRest*comp.Eval(e.ctx, S), true
	}
	dobj := func(S *model.SourceSet, d search.Delta) (float64, bool) {
		f1, valid := mt.f1(S)
		q := wMatch * f1
		//ube:float-exact wRest is assigned the literal 0 sentinel by Solve when w_match == 1
		if wRest == 0 {
			return q, valid
		}
		if d.Base != nil && d.Add >= 0 && d.Drop < 0 && !d.Base.Has(d.Add) {
			if e.faults.Fire(faultinject.SnapshotEvict) != nil {
				inc.discard()
			}
			key := d.Base.Key()
			snap := inc.lookup(key)
			if snap == nil {
				snap = de.Snapshot(e.ctx, d.Base)
				inc.publish(snap)
			}
			dq := de.EvalAdd(e.ctx, snap, d.Add, S)
			if ubedebug.Enabled && ubedebug.ShouldAudit() {
				// Sampled delta≡full audit: the incremental value must
				// agree with the full composite evaluation on the
				// materialized set up to fold reassociation.
				full := comp.Eval(e.ctx, S)
				ubedebug.Assert(floats.EqTol(dq, full, 1e-9),
					"engine: delta objective %v diverges from full evaluation %v on %q+%d",
					dq, full, key, d.Add)
				ubedebug.CountAudit()
			}
			return q + wRest*dq, valid
		}
		// Drop and swap moves (and bases that don't match the snapshot
		// shape) take the full composite path.
		st.Add(trace.CQEFFull, 1)
		return q + wRest*comp.Eval(e.ctx, S), valid
	}
	return dobj, bound
}

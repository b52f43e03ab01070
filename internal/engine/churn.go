package engine

import (
	"errors"
	"fmt"
	"sort"

	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/strsim"
	"ube/internal/ubedebug"
)

// This file implements universe mutation (churn): sources appearing,
// disappearing and changing metadata while the engine keeps serving
// solves. The engine maintains its derived state incrementally — the
// interned vocabulary's live-name refcounts drive a per-θ dynamic
// blocking index (strsim.DynSparse), a pcsa.UnionCounter maintains the
// universe-distinct signature union, and the QEF context is rebased in
// place — instead of rebuilding from scratch. The differential churn
// suite (churn_test.go) proves that after every prefix of a mutation
// schedule this incremental state is bit-identical to a fresh engine
// built on the mutated universe.
//
// Churn is NOT safe concurrently with solves on the same engine; the
// serving layer serializes it against session solves through its
// per-session work token, exactly like feedback edits.

// Mutation is one universe edit; the type and its op vocabulary live in
// the model package (model.Mutation) so schedule generators and codecs
// need not import the engine. The aliases keep the engine API readable:
// mutations in a batch apply in order, and IDs refer to the universe
// state after the preceding mutations of the same batch (a remove
// renumbers every following source down by one, exactly like
// model.Universe's dense-ID invariant demands).
type Mutation = model.Mutation

// Mutation op names, re-exported for engine callers.
const (
	OpAdd    = model.OpAdd
	OpRemove = model.OpRemove
	OpUpdate = model.OpUpdate
)

// Remap maps pre-batch source IDs to post-batch IDs; -1 marks a removed
// source. It is monotonic on survivors, so remapping a sorted ID list
// keeps it sorted.
type Remap []int

// Of returns the post-batch ID for a pre-batch ID, or -1 when the
// source was removed (or the ID was never valid).
func (r Remap) Of(id int) int {
	if id < 0 || id >= len(r) {
		return -1
	}
	return r[id]
}

// apply remaps a list of IDs, dropping removed ones and preserving
// order. It always returns a fresh slice.
func (r Remap) apply(ids []int) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if nid := r.Of(id); nid >= 0 {
			out = append(out, nid)
		}
	}
	return out
}

// PinnedSourceError reports a churn batch that would remove a source
// the session's problem currently pins — via a source constraint or a
// GA constraint reference. The batch is refused wholesale; the caller
// drops the constraint first or skips the removal.
type PinnedSourceError struct {
	// ID is the pre-batch ID of the pinned source.
	ID int
	// Constraint is "source" or "ga".
	Constraint string
}

func (e *PinnedSourceError) Error() string {
	return fmt.Sprintf("engine: churn would remove source %d pinned by a %s constraint", e.ID, e.Constraint)
}

// churnEvent is the part of one add/remove that the incremental
// structures consume: the source's interned name IDs and its tuple
// signature. Updates generate no event — they touch neither the
// vocabulary nor the union.
type churnEvent struct {
	remove bool
	// attrs names an added source's attributes; a remove needs no names.
	attrs []string
	// row is the source's nameIDs row: a remove reads its IDs, and an
	// add fills it at commit, so a later remove of the same source in
	// the batch reads the IDs the add interned.
	row []int
	sig *pcsa.Sketch
}

// churnPlan is a validated batch: the would-be source slice (IDs
// renumbered), the ID remap, the event sequence and the QEF delta.
// Planning never mutates the engine, so a rejected batch is a guaranteed
// no-op — the all-or-nothing contract the serving layer's
// WAL-ahead-of-apply ordering relies on.
type churnPlan struct {
	next   []model.Source
	remap  Remap
	events []churnEvent
	// rows is the post-batch nameIDs table, spliced in lockstep with
	// next: surviving sources keep their already-interned rows and added
	// sources hold a row their add event fills at commit. Reusing rows
	// keeps maintenance O(batch + U) pointer moves instead of
	// re-normalizing and re-interning every attribute name in the
	// universe (the dominant cost at U=10⁴).
	rows  [][]int
	delta qef.Delta
}

// planChurn validates a mutation batch against the current universe and
// builds its plan without touching any engine state. It tracks the
// cooperative signature parameters through every intermediate state,
// because the maintained union counter sees each add/remove
// individually: a batch whose final state validates but which
// transiently mixes incompatible parameters is rejected here rather than
// exploding mid-commit.
//
// The verdict on the post-batch universe is model.Universe.Validate's,
// reached from the batch alone: the current universe is valid, so only
// the sources the batch added or overwrote need model.Source.Check,
// against an attribute-signature reference tracked through the batch.
// Attribute signatures feed no incremental structure, so unlike tuple
// signatures they may mix transiently. Only when a check fails does the
// full Validate run, to give its exact verdict and error (DESIGN.md §16).
func (e *Engine) planChurn(muts []Mutation) (*churnPlan, error) {
	if len(muts) == 0 {
		return nil, errors.New("engine: empty churn batch")
	}
	n0 := len(e.u.Sources)
	next := append([]model.Source(nil), e.u.Sources...)
	rows := append([][]int(nil), e.nameIDs...)
	// fresh marks, in lockstep with next, the sources the batch added or
	// overwrote; the others keep their pre-batch values.
	fresh := make([]bool, n0)
	remap := make(Remap, n0)
	for i := range remap {
		remap[i] = i
	}
	type sigParams struct {
		nmaps int
		seed  uint64
	}
	var cur sigParams
	coop := 0
	// attrProto is the reference for attribute-signature parameters. It
	// is the current universe's first attribute signature and changes only
	// when no live source carries any, so while an unchanged source does,
	// it has the parameters that source shares with the rest of them.
	var attrProto *pcsa.Sketch
	attrs := 0
	for i := range next {
		if sg := next[i].Signature; sg != nil {
			if coop == 0 {
				cur = sigParams{sg.NumMaps(), sg.Seed()}
			}
			coop++
		}
		if as := next[i].AttrSignatures; len(as) > 0 {
			if attrs == 0 {
				attrProto = as[0]
			}
			attrs++
		}
	}
	plan := &churnPlan{}
	for mi, m := range muts {
		switch m.Op {
		case OpAdd:
			s := m.Source
			s.ID = len(next)
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
			if sg := s.Signature; sg != nil {
				p := sigParams{sg.NumMaps(), sg.Seed()}
				if coop > 0 && p != cur {
					return nil, fmt.Errorf("engine: churn mutation %d: signature parameters (%d maps, seed %d) incompatible with the live population's (%d maps, seed %d)",
						mi, p.nmaps, p.seed, cur.nmaps, cur.seed)
				}
				if coop == 0 {
					cur = p
				}
				coop++
			}
			if as := s.AttrSignatures; len(as) > 0 {
				if attrs == 0 {
					attrProto = as[0]
				}
				attrs++
			}
			row := make([]int, len(s.Attributes))
			next = append(next, s)
			rows = append(rows, row)
			fresh = append(fresh, true)
			plan.events = append(plan.events, churnEvent{attrs: s.Attributes, row: row, sig: s.Signature})
		case OpRemove:
			if m.ID < 0 || m.ID >= len(next) {
				return nil, fmt.Errorf("engine: churn mutation %d: remove of source %d out of range [0,%d)", mi, m.ID, len(next))
			}
			victim := next[m.ID]
			if victim.Signature != nil {
				coop--
			}
			if len(victim.AttrSignatures) > 0 {
				attrs--
			}
			if !fresh[m.ID] {
				plan.delta.Gone = append(plan.delta.Gone, victim)
			}
			plan.events = append(plan.events, churnEvent{remove: true, row: rows[m.ID], sig: victim.Signature})
			next = append(next[:m.ID], next[m.ID+1:]...)
			rows = append(rows[:m.ID], rows[m.ID+1:]...)
			fresh = append(fresh[:m.ID], fresh[m.ID+1:]...)
			for j, c := range remap {
				switch {
				case c == m.ID:
					remap[j] = -1
				case c > m.ID:
					remap[j] = c - 1
				}
			}
		case OpUpdate:
			if m.ID < 0 || m.ID >= len(next) {
				return nil, fmt.Errorf("engine: churn mutation %d: update of source %d out of range [0,%d)", mi, m.ID, len(next))
			}
			if !fresh[m.ID] {
				plan.delta.Gone = append(plan.delta.Gone, next[m.ID])
				fresh[m.ID] = true
			}
			if m.Cardinality != nil {
				next[m.ID].Cardinality = *m.Cardinality
			}
			if m.Characteristics != nil {
				cc := make(map[string]float64, len(m.Characteristics))
				//ube:nondeterministic-ok key-for-key map copy is order-independent
				for k, v := range m.Characteristics {
					cc[k] = v
				}
				next[m.ID].Characteristics = cc
			}
		default:
			return nil, fmt.Errorf("engine: churn mutation %d: unknown op %q", mi, m.Op)
		}
	}
	for i := range next {
		next[i].ID = i
	}
	// Validate's loop over the fresh sources alone: unchanged sources
	// passed it before the batch. Tuple signatures were tracked above, so
	// only the attribute signatures need a reference.
	suspect := false
	for i, f := range fresh {
		if !f {
			continue
		}
		plan.delta.Fresh = append(plan.delta.Fresh, i)
		if next[i].Check(i, nil, attrProto) != nil {
			suspect = true
		}
		if attrProto == nil && len(next[i].AttrSignatures) > 0 {
			attrProto = next[i].AttrSignatures[0]
		}
	}
	if suspect {
		tmp := model.Universe{Sources: next}
		if err := tmp.Validate(); err != nil {
			return nil, fmt.Errorf("engine: churn batch rejected: %w", err)
		}
	}
	plan.next = next
	plan.rows = rows
	plan.remap = remap
	return plan, nil
}

// initChurnState lazily builds the structures only churned engines pay
// for: per-name live refcounts, the maintained signature union, and the
// (initially empty) per-θ dynamic blocking indexes. Engines that never
// churn keep the exact pre-churn code paths and costs.
func (e *Engine) initChurnState() {
	e.churned = true
	e.dynByTheta = make(map[float64]*strsim.DynSparse)
	e.dynCharged = make(map[float64]strsim.BlockStats)
	e.nameRefs = make(map[int]int)
	for _, row := range e.nameIDs {
		for _, id := range row {
			e.nameRefs[id]++
		}
	}
	e.sigCounter = pcsa.NewUnionCounter()
	for i := range e.u.Sources {
		if sg := e.u.Sources[i].Signature; sg != nil {
			if err := e.sigCounter.Add(sg); err != nil {
				panic(fmt.Sprintf("engine: validated universe has incompatible signatures: %v", err))
			}
		}
	}
}

// commitChurn applies a validated plan. Planning already proved every
// step admissible, so failures here are programming errors and panic.
func (e *Engine) commitChurn(plan *churnPlan) {
	if !e.churned {
		e.initChurnState()
	}
	// Mutate the per-θ dynamic indexes in ascending θ order so their
	// internal allocation patterns are reproducible run to run.
	thetas := make([]float64, 0, len(e.dynByTheta))
	for th := range e.dynByTheta {
		thetas = append(thetas, th)
	}
	sort.Float64s(thetas)
	for _, ev := range plan.events {
		if ev.remove {
			for _, id := range ev.row {
				e.nameRefs[id]--
				if e.nameRefs[id] == 0 {
					delete(e.nameRefs, id)
					for _, th := range thetas {
						if d := e.dynByTheta[th]; d != nil {
							if err := d.Delete(id); err != nil {
								panic(fmt.Sprintf("engine: churn desync: delete name %d from θ=%v index: %v", id, th, err))
							}
						}
					}
				}
			}
			if ev.sig != nil {
				if err := e.sigCounter.Remove(ev.sig); err != nil {
					panic(fmt.Sprintf("engine: churn desync: signature union remove: %v", err))
				}
			}
			continue
		}
		for a, name := range ev.attrs {
			id := e.sim.Intern(name)
			ev.row[a] = id
			if e.nameRefs[id] == 0 {
				for _, th := range thetas {
					if d := e.dynByTheta[th]; d != nil {
						if err := d.Insert(id); err != nil {
							panic(fmt.Sprintf("engine: churn desync: insert name %d into θ=%v index: %v", id, th, err))
						}
					}
				}
			}
			e.nameRefs[id]++
		}
		if ev.sig != nil {
			if err := e.sigCounter.Add(ev.sig); err != nil {
				panic(fmt.Sprintf("engine: churn desync: signature union add: %v", err))
			}
		}
	}
	// Surviving sources carried their interned rows through the plan's
	// splices and the add events above filled the added ones. Updates
	// never touch Attributes, so reused rows cannot go stale.
	e.u.Sources = plan.next
	e.nameIDs = plan.rows
	// Frozen θ-sparse tables are stale in any mutated vocabulary; the
	// dynamic indexes re-freeze lazily on the next solve at each θ, and
	// neighbor lists follow them. The dense matrix only ever grows, so
	// its neighbor lists stay until refreshMatrix grows it.
	clear(e.sparseByTheta)
	if e.matrix != nil {
		e.matrixDirty = true
	} else {
		clear(e.neighborsByTheta)
	}
	if err := e.ctx.Rebase(plan.delta, e.sigCounter.Sketch()); err != nil {
		panic(fmt.Sprintf("engine: churn desync: context rebase on validated universe: %v", err))
	}
	if ubedebug.Enabled && ubedebug.ShouldAudit() {
		// Sampled audit of the batch-local planning and rebase: the
		// committed universe must pass the full Validate (inside
		// NewContext), and the rebased context must equal a fresh one.
		fresh, err := qef.NewContext(e.u)
		ubedebug.Assert(err == nil, "engine: churn committed a universe Validate refuses: %v", err)
		d := e.ctx.Diff(fresh)
		ubedebug.Assert(d == "", "engine: rebased QEF context differs from NewContext: %s", d)
		ubedebug.CountAudit()
	}
}

// ApplyChurn applies a mutation batch to the engine's universe,
// maintaining all derived state incrementally. The batch is
// all-or-nothing: any invalid mutation rejects the whole batch with no
// effect. The returned Remap translates pre-batch source IDs.
//
// ApplyChurn mutates the universe the engine was built on in place;
// sessions sharing the engine must repair their problems with
// Session.ApplyChurn instead of calling this directly.
func (e *Engine) ApplyChurn(muts []Mutation) (Remap, error) {
	plan, err := e.planChurn(muts)
	if err != nil {
		return nil, err
	}
	e.commitChurn(plan)
	return plan.remap, nil
}

// AddSource appends one source and returns its assigned ID.
func (e *Engine) AddSource(s model.Source) (int, error) {
	if _, err := e.ApplyChurn([]Mutation{{Op: OpAdd, Source: s}}); err != nil {
		return 0, err
	}
	return e.u.N() - 1, nil
}

// RemoveSource removes one source and returns the resulting ID remap.
func (e *Engine) RemoveSource(id int) (Remap, error) {
	return e.ApplyChurn([]Mutation{{Op: OpRemove, ID: id}})
}

// UpdateSource replaces a source's cardinality and/or characteristics.
func (e *Engine) UpdateSource(id int, cardinality *int64, characteristics map[string]float64) error {
	_, err := e.ApplyChurn([]Mutation{{Op: OpUpdate, ID: id, Cardinality: cardinality, Characteristics: characteristics}})
	return err
}

// Churned reports whether the engine's universe has ever been mutated.
func (e *Engine) Churned() bool { return e.churned }

// ApplyChurn mutates the session engine's universe and repairs the
// session's problem into the post-batch ID space: source constraints,
// GA constraints and the warm start are remapped; exclusions of removed
// sources are dropped silently (excluding a source that no longer
// exists is vacuous). Removing a source the problem pins — required
// directly or referenced by a GA constraint — refuses the whole batch
// with a *PinnedSourceError; the user unpins first, mirroring how
// Constraints.Validate refuses contradictory feedback.
//
// The warm start survives churn: the next solve starts from the last
// solution's sources remapped into the new ID space, minus any that
// vanished, instead of the stale pre-churn IDs. History entries are
// immutable records of what was solved and keep their original IDs.
//
// If removals shrink the universe below MaxSources, MaxSources is
// clamped to the new universe size so the session stays solvable.
func (s *Session) ApplyChurn(muts []Mutation) (Remap, error) {
	plan, err := s.planChurn(muts)
	if err != nil {
		return nil, err
	}
	// Materialize the warm start the next solve would have taken from
	// the history before IDs change, so it can be remapped below. After
	// the first churn the problem's InitialSources are already the
	// repaired warm start and only need remapping again.
	if !s.churnDirty {
		if last := s.Last(); last != nil {
			s.problem.InitialSources = append([]int(nil), last.Sources...)
		}
	}
	s.engine.commitChurn(plan)
	s.problem.Constraints.Sources = plan.remap.apply(s.problem.Constraints.Sources)
	s.problem.Constraints.Exclude = plan.remap.apply(s.problem.Constraints.Exclude)
	for gi, g := range s.problem.Constraints.GAs {
		ng := make(model.GA, len(g))
		for ri, r := range g {
			ng[ri] = model.AttrRef{Source: plan.remap.Of(r.Source), Attr: r.Attr}
		}
		s.problem.Constraints.GAs[gi] = ng
	}
	s.problem.InitialSources = plan.remap.apply(s.problem.InitialSources)
	if n := s.engine.u.N(); s.problem.MaxSources > n && n > 0 {
		s.problem.MaxSources = n
	}
	s.churnDirty = true
	return plan.remap, nil
}

// planChurn validates a batch against both the engine (shape, signature
// compatibility) and the session's problem (pinned sources), without
// committing anything.
func (s *Session) planChurn(muts []Mutation) (*churnPlan, error) {
	plan, err := s.engine.planChurn(muts)
	if err != nil {
		return nil, err
	}
	for _, id := range s.problem.Constraints.Sources {
		if plan.remap.Of(id) < 0 {
			return nil, &PinnedSourceError{ID: id, Constraint: "source"}
		}
	}
	for _, g := range s.problem.Constraints.GAs {
		for _, r := range g {
			if plan.remap.Of(r.Source) < 0 {
				return nil, &PinnedSourceError{ID: r.Source, Constraint: "ga"}
			}
		}
	}
	return plan, nil
}

// CheckChurn validates a batch exactly as ApplyChurn would — engine
// admissibility plus the session's pinned-source refusals — without
// applying anything. A serving layer that must write ahead before
// mutating uses it to order "validate, log, apply": a batch CheckChurn
// admits is guaranteed to apply, because planning is pure and the worker
// owns the session until the apply lands.
func (s *Session) CheckChurn(muts []Mutation) error {
	_, err := s.planChurn(muts)
	return err
}

// ChurnDirty reports whether the universe was mutated since the last
// committed solve — i.e. whether the history tail's source IDs are stale
// and the next solve will warm-start from the repaired
// Problem.InitialSources instead.
func (s *Session) ChurnDirty() bool { return s.churnDirty }

// MarkChurnDirty restores the churn-dirty flag. Recovery uses it after
// Restore when the durable record says the universe changed after the
// last restored solve; the service's solve-undo path uses it so a solve
// whose durability commit failed puts the flag back the way the solve
// found it.
func (s *Session) MarkChurnDirty() { s.churnDirty = true }

package engine

import (
	"context"
	"fmt"

	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/trace"
)

// Session is the iterative exploration loop of §1/§6: the user solves,
// inspects the solution, edits the problem — pinning sources, promoting
// output GAs to GA constraints, reweighting QEFs, tightening θ — and
// solves again. By design the constraints the user provides have the same
// structure as the mediated schema µBE outputs, so feedback is "modify the
// output of the current iteration to get the input of the next".
type Session struct {
	engine  *Engine
	problem Problem
	history []Iteration
	// churnDirty marks that the universe mutated since the last solve:
	// the history's source IDs are stale, so the next solve warm-starts
	// from the problem's repaired InitialSources (remapped by
	// ApplyChurn) instead of copying Last().Sources. Cleared once a
	// solve lands in the post-churn ID space.
	churnDirty bool
}

// Iteration records one solved problem and its solution.
type Iteration struct {
	// Problem is a deep snapshot of the problem that was solved.
	Problem Problem
	// Solution is the result.
	Solution *Solution
}

// NewSession starts a session from an initial problem.
func NewSession(e *Engine, initial Problem) *Session {
	return &Session{engine: e, problem: snapshot(initial)}
}

// Engine returns the session's engine.
func (s *Session) Engine() *Engine { return s.engine }

// Problem returns a snapshot of the current problem definition.
func (s *Session) Problem() Problem { return snapshot(s.problem) }

// History returns the solved iterations, oldest first.
func (s *Session) History() []Iteration { return s.history }

// Last returns the most recent solution, or nil before the first Solve.
func (s *Session) Last() *Solution {
	if len(s.history) == 0 {
		return nil
	}
	return s.history[len(s.history)-1].Solution
}

// Solve runs the current problem and appends it to the history. Each
// iteration advances the solver seed so re-solving an unchanged problem
// explores differently, like re-running the tool does for the user, and
// warm-starts from the previous iteration's solution so feedback refines
// rather than restarts the exploration.
func (s *Session) Solve() (*Solution, error) {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve with cancellation. A cancelled solve returns
// ctx.Err() and leaves the session untouched: nothing is appended to the
// history and the seed does not advance, so retrying after a
// cancellation behaves exactly as if the cancelled attempt never
// happened. A nil ctx behaves like context.Background().
func (s *Session) SolveContext(ctx context.Context) (*Solution, error) {
	if last := s.Last(); last != nil && !s.churnDirty {
		s.problem.InitialSources = append([]int(nil), last.Sources...)
	}
	sol, err := s.engine.SolveContext(ctx, &s.problem)
	if err != nil {
		return nil, err
	}
	s.history = append(s.history, Iteration{Problem: snapshot(s.problem), Solution: sol})
	s.problem.Seed++
	s.churnDirty = false
	return sol, nil
}

// SolveInput applies the warm-start (InitialSources from the last
// solution) exactly as the next SolveContext would and returns a
// snapshot of the resulting problem — the complete solver input, since
// a solve is a pure function of (universe, problem). The benchmark
// ledger's churn replay check re-solves this snapshot on a fresh engine
// and requires the session's solution bit for bit.
// Calling SolveContext afterwards re-applies the same warm-start, so
// SolveInput followed by SolveContext solves exactly this snapshot.
func (s *Session) SolveInput() Problem {
	if last := s.Last(); last != nil && !s.churnDirty {
		s.problem.InitialSources = append([]int(nil), last.Sources...)
	}
	return snapshot(s.problem)
}

// SetProblem replaces the session's current problem wholesale with a
// snapshot of p, leaving the history untouched. Callers that apply a
// batch of feedback edits can save Problem() first and restore it on a
// mid-batch error so edits stay all-or-nothing.
func (s *Session) SetProblem(p Problem) { s.problem = snapshot(p) }

// Restore replaces both the problem and the history wholesale. Two
// callers exist: recovery rebuilding a session from a durable snapshot
// (problem = the snapshot's current problem, seed already advanced past
// the restored iterations), and the service undoing a solve whose
// durability commit failed (problem = the pre-edit save, history minus
// the uncommitted iteration). The next Solve warm-starts from the last
// restored solution, exactly as if the restored history had been solved
// here.
func (s *Session) Restore(p Problem, history []Iteration) {
	s.problem = snapshot(p)
	s.history = append([]Iteration(nil), history...)
}

// SetProgress installs (or, with nil, removes) a progress observer for
// subsequent solves. The callback is a pure side channel and never
// influences results; see search.ProgressFunc.
func (s *Session) SetProgress(fn search.ProgressFunc) { s.problem.Progress = fn }

// SetTrace installs (or, with nil, removes) a span tracer for subsequent
// solves. Like Progress it is a pure side channel and never influences
// results; a tracer records a single solve, so callers install a fresh
// one per solve and Finish it afterwards.
func (s *Session) SetTrace(t *trace.Tracer) { s.problem.Trace = t }

// SetWeights replaces the QEF weights.
func (s *Session) SetWeights(w qef.Weights) { s.problem.Weights = w.Clone() }

// SetWeight adjusts one QEF's weight and rescales the others so the total
// stays 1 — the paper's Figure 8 workflow of biasing a single dimension.
func (s *Session) SetWeight(name string, w float64) error {
	if w < 0 || w > 1 {
		return fmt.Errorf("engine: weight %v outside [0,1]", w)
	}
	cur, ok := s.problem.Weights[name]
	if !ok {
		return fmt.Errorf("engine: unknown QEF %q", name)
	}
	restOld := 1 - cur
	restNew := 1 - w
	next := s.problem.Weights.Clone()
	next[name] = w
	//ube:nondeterministic-ok each key's rescale reads only its own entry; order cannot matter
	for k, v := range next {
		if k == name {
			continue
		}
		if restOld <= weightEpsilon {
			// The other weights were all zero; split evenly.
			next[k] = restNew / float64(len(next)-1)
		} else {
			next[k] = v / restOld * restNew
		}
	}
	s.problem.Weights = next
	return nil
}

// SetMaxSources changes m.
func (s *Session) SetMaxSources(m int) { s.problem.MaxSources = m }

// SetTheta changes the matching threshold θ.
func (s *Session) SetTheta(theta float64) { s.problem.Theta = theta }

// SetBeta changes the GA size floor β.
func (s *Session) SetBeta(beta int) { s.problem.Beta = beta }

// SetOptimizer changes the solver.
func (s *Session) SetOptimizer(opt search.Optimizer) { s.problem.Optimizer = opt }

// RequireSource adds a source constraint.
func (s *Session) RequireSource(id int) error {
	if id < 0 || id >= s.engine.u.N() {
		return fmt.Errorf("engine: source %d out of range", id)
	}
	for _, c := range s.problem.Constraints.Sources {
		if c == id {
			return nil // already required
		}
	}
	s.problem.Constraints.Sources = append(s.problem.Constraints.Sources, id)
	return s.problem.Constraints.Validate(s.engine.u)
}

// DropSourceConstraint removes a source constraint if present.
func (s *Session) DropSourceConstraint(id int) {
	out := s.problem.Constraints.Sources[:0]
	for _, c := range s.problem.Constraints.Sources {
		if c != id {
			out = append(out, c)
		}
	}
	s.problem.Constraints.Sources = out
}

// ExcludeSource forbids a source from any future solution.
func (s *Session) ExcludeSource(id int) error {
	if id < 0 || id >= s.engine.u.N() {
		return fmt.Errorf("engine: source %d out of range", id)
	}
	for _, c := range s.problem.Constraints.Exclude {
		if c == id {
			return nil
		}
	}
	s.problem.Constraints.Exclude = append(s.problem.Constraints.Exclude, id)
	if err := s.problem.Constraints.Validate(s.engine.u); err != nil {
		// Roll back the conflicting exclusion.
		s.problem.Constraints.Exclude = s.problem.Constraints.Exclude[:len(s.problem.Constraints.Exclude)-1]
		return err
	}
	return nil
}

// DropExclusion removes an exclusion if present.
func (s *Session) DropExclusion(id int) {
	out := s.problem.Constraints.Exclude[:0]
	for _, c := range s.problem.Constraints.Exclude {
		if c != id {
			out = append(out, c)
		}
	}
	s.problem.Constraints.Exclude = out
}

// PinGA adds a GA constraint: the next solution's schema must contain a GA
// that contains g.
func (s *Session) PinGA(g model.GA) error {
	if !g.Valid() {
		return fmt.Errorf("engine: GA constraint is not a valid GA")
	}
	next := s.problem.Constraints.Clone()
	next.GAs = append(next.GAs, g)
	if err := next.Validate(s.engine.u); err != nil {
		return err
	}
	s.problem.Constraints = *next
	return nil
}

// PinGAFromSolution promotes GA index i of the last solution's schema into
// a GA constraint — the canonical feedback gesture: the output of one
// iteration becomes the input of the next.
func (s *Session) PinGAFromSolution(i int) error {
	last := s.Last()
	if last == nil || last.Schema == nil {
		return fmt.Errorf("engine: no solved schema to pin from")
	}
	if i < 0 || i >= len(last.Schema.GAs) {
		return fmt.Errorf("engine: GA index %d out of range [0,%d)", i, len(last.Schema.GAs))
	}
	return s.PinGA(append(model.GA(nil), last.Schema.GAs[i]...))
}

// UnpinGA removes GA constraint index i.
func (s *Session) UnpinGA(i int) error {
	gas := s.problem.Constraints.GAs
	if i < 0 || i >= len(gas) {
		return fmt.Errorf("engine: GA constraint index %d out of range [0,%d)", i, len(gas))
	}
	s.problem.Constraints.GAs = append(gas[:i], gas[i+1:]...)
	return nil
}

// AddQEF registers a caller-defined quality dimension with zero weight;
// the user then reweights — the §1 "define new quality metrics" move.
func (s *Session) AddQEF(q qef.QEF) error {
	if q == nil {
		return fmt.Errorf("engine: nil QEF")
	}
	name := q.Name()
	if name == MatchQEFName || name == "card" || name == "coverage" || name == "redundancy" {
		return fmt.Errorf("engine: QEF name %q is reserved", name)
	}
	if _, dup := s.problem.Weights[name]; dup {
		return fmt.Errorf("engine: QEF %q already configured", name)
	}
	s.problem.ExtraQEFs = append(s.problem.ExtraQEFs, q)
	s.problem.Weights[name] = 0
	return nil
}

// AddCharacteristicQEF registers a new characteristic QEF with zero weight;
// the user then reweights (defining new QEFs between iterations, §1).
func (s *Session) AddCharacteristicQEF(char string, agg qef.Aggregator) error {
	if agg == nil {
		return fmt.Errorf("engine: nil aggregator")
	}
	if _, _, ok := s.engine.ctx.CharRange(char); !ok {
		return fmt.Errorf("engine: no source defines characteristic %q", char)
	}
	if s.problem.Characteristics == nil {
		s.problem.Characteristics = make(map[string]qef.Aggregator)
	}
	if _, dup := s.problem.Characteristics[char]; dup {
		return fmt.Errorf("engine: characteristic %q already configured", char)
	}
	s.problem.Characteristics[char] = agg
	if _, ok := s.problem.Weights[char]; !ok {
		s.problem.Weights[char] = 0
	}
	return nil
}

// snapshot deep-copies a problem so history entries are immutable.
func snapshot(p Problem) Problem {
	cp := p
	cp.Constraints = *p.Constraints.Clone()
	cp.Weights = p.Weights.Clone()
	cp.InitialSources = append([]int(nil), p.InitialSources...)
	cp.ExtraQEFs = append([]qef.QEF(nil), p.ExtraQEFs...)
	if p.Characteristics != nil {
		cp.Characteristics = make(map[string]qef.Aggregator, len(p.Characteristics))
		//ube:nondeterministic-ok key-for-key map copy is order-independent
		for k, v := range p.Characteristics {
			cp.Characteristics[k] = v
		}
	}
	return cp
}

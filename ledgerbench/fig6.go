package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ube/internal/engine"
	"ube/internal/experiments"
	"ube/internal/synth"
	"ube/internal/trace"
)

// fig6-feedback: the §6 feedback loop over the §7 Fig 6 grid. One client,
// in process. Each cell of the grid (m ∈ {10…50} × the five constraint
// variants) is one user: it creates a session over the 200-source
// universe from its JSON bytes, then solves cold, reweights, tightens θ
// and pins a source, solving after each edit. Every problem is distinct:
// cells draw constraints, weights, θ and pins from their own seed, and
// later passes over the grid use new seeds.
//
// Why: Algorithm 1 Match, the QEFs and PCSA do almost all the work; the
// vocabulary is ~125 names, so strsim and set-up are negligible; the
// reweight step is the only place the Match memo can hit.

const (
	fig6Sources = 200
	fig6Evals   = 400
	// fig6Workers is the solver's evaluation fan-out: a constant, not
	// nproc, so results and counters reproduce on any machine. One
	// worker: with two, a solve's evaluation batches wait on the slower
	// worker, and when the host takes one vCPU away the waiting burns CPU
	// time, so an operation's cost moved with the host's load.
	fig6Workers = 1
	fig6Steps   = 4
	// fig6Universes is how many universes a run's cells rotate over.
	fig6Universes = 16
	// fig6ReplayCells are re-solved untimed on fresh engines after the
	// timed phase; their digest must equal the timed one.
	fig6ReplayCells = 2
	// fig6WarmCell numbers the untimed warm-up cell, far from the timed
	// cells so its problem is unrelated to theirs.
	fig6WarmCell = 1 << 30
)

type fig6 struct {
	cfg runConfig
	// Cell c runs over universe c mod fig6Universes: averaging over
	// several universes keeps quality and cost from hanging on one
	// universe's quirks, so the seed moves them less.
	setups []*experiments.Setup
	ubytes [][]byte
	ms     []int
	evals  int
	// live keeps the latest cell's session reachable for the heap reading.
	live *engine.Session
}

func newFig6(cfg runConfig) (*fig6, error) {
	sc := synth.DefaultConfig()
	sc.NumSources = fig6Sources
	ms := []int{10, 20, 30, 40, 50}
	evals := fig6Evals
	if cfg.Smoke {
		sc = synth.QuickConfig(40)
		ms = []int{6, 8}
		evals = 40
	}
	w := &fig6{cfg: cfg, ms: ms, evals: evals}
	for i := 0; i < fig6Universes; i++ {
		sc.Seed = cfg.Seed*fig6Universes + int64(i)
		sc.Workers = 2
		u, truth, err := synth.Generate(sc)
		if err != nil {
			return nil, fmt.Errorf("generating universe: %w", err)
		}
		ub, err := json.Marshal(u)
		if err != nil {
			return nil, fmt.Errorf("encoding universe: %w", err)
		}
		w.setups = append(w.setups, &experiments.Setup{Cfg: sc, U: u, Truth: truth})
		w.ubytes = append(w.ubytes, ub)
	}
	return w, nil
}

// problem is cell c's starting problem. Consecutive cells cycle through
// every m and, in a Latin square, every variant, so any prefix of the
// run has the grid's mix.
func (w *fig6) problem(c int) (engine.Problem, error) {
	nm := len(w.ms)
	idx := c % (nm * len(experiments.Variants))
	m := w.ms[idx%nm]
	v := experiments.Variants[(idx/nm+idx%nm)%len(experiments.Variants)]
	seed := w.cfg.Seed*1_000_003 + int64(c) + 1
	p, err := w.setups[c%fig6Universes].Problem(m, v, experiments.Options{}, seed)
	if err != nil {
		return p, fmt.Errorf("cell %d problem: %w", c, err)
	}
	p.MaxEvals = w.evals
	p.Workers = fig6Workers
	return p, nil
}

// opResult is one solve of a cell. Its latency travels beside it, not in
// it: the solution is replayed through the codecs, and a wall-clock value
// must not reach them.
type opResult struct {
	op      int
	problem engine.Problem
	sol     *engine.Solution
	err     error
}

// runCell plays cell c: create, then the four feedback solves. onOp sees
// every solve and its cost; rec (nil when untraced) receives the spans
// and eng the engine traces. It returns the create's cost.
func (w *fig6) runCell(c int, rec *recorder, eng *engineStats, onOp func(opResult, opCost)) (create opCost, err error) {
	p, err := w.problem(c)
	if err != nil {
		return create, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	createOp := int64(-1 - c)
	root := rec.begin(createOp, -1, "op.create")
	clk := startOp()
	sp := rec.begin(createOp, root, "schemaio.universe_decode")
	u, err := decodeUniverse(w.ubytes[c%fig6Universes])
	rec.end(sp)
	if err != nil {
		return create, err
	}
	sp = rec.begin(createOp, root, "engine.New")
	e, err := engine.New(u)
	rec.end(sp)
	if err != nil {
		return create, fmt.Errorf("engine.New: %w", err)
	}
	sess := engine.NewSession(e, p)
	create = clk.stop()
	rec.end(root)
	w.live = sess

	for step := 0; step < fig6Steps; step++ {
		op := c*fig6Steps + step
		clk := startOp()
		root := rec.begin(int64(op), -1, "op.solve")
		var editErr error
		switch step {
		case 1: // reweight: bias cardinality, rescaling the rest
			editErr = sess.SetWeight("card", 0.3+0.3*rng.Float64())
		case 2: // tighten θ
			sess.SetTheta([]float64{0.7, 0.75, 0.8}[rng.Intn(3)])
		case 3: // pin one of the chosen sources
			if last := sess.Last(); last != nil && len(last.Sources) > 0 {
				editErr = sess.RequireSource(last.Sources[rng.Intn(len(last.Sources))])
			}
		}
		var sol *engine.Solution
		if editErr == nil {
			sol, editErr = solveTraced(sess, rec, eng, int64(op), root)
		}
		rec.end(root)
		cost := clk.stop()
		r := opResult{op: op, sol: sol, err: editErr}
		if editErr == nil {
			r.problem = sess.History()[len(sess.History())-1].Problem
		}
		onOp(r, cost)
		if editErr != nil {
			return create, nil
		}
	}
	return create, nil
}

// solveTraced runs one session solve, under a span with the engine's own
// trace grafted beneath it when rec is non-nil.
func solveTraced(sess *engine.Session, rec *recorder, eng *engineStats, op int64, parent int32) (*engine.Solution, error) {
	if rec == nil {
		return sess.Solve()
	}
	sp := rec.begin(op, parent, "engine.Session.Solve")
	tr := trace.New()
	sess.SetTrace(tr)
	sol, err := sess.Solve()
	sess.SetTrace(nil)
	rec.end(sp)
	t := tr.Finish()
	start, _ := rec.interval(sp)
	rec.graft(op, sp, start, t)
	if err == nil {
		eng.add(t)
	}
	return sol, err
}

// fig6Phase runs cells from 0 until the phase has lasted seconds and
// holds at least minOps solves.
type fig6Phase struct {
	*phase
	first []digestEntry // the first qualityOps operations, in order
	cases []matchCase
	sols  []*engine.Solution
}

func (w *fig6) timedPhase(seconds float64, minOps int, rec *recorder, eng *engineStats, res *result) *fig6Phase {
	ph := &fig6Phase{phase: newPhase()}
	settle()
	u0 := usageNow()
	start := time.Now()
	for c := 0; time.Since(start).Seconds() < seconds || len(ph.latMs) < minOps; c++ {
		create, err := w.runCell(c, rec, eng, func(r opResult, cost opCost) {
			ph.attempted++
			if r.err != nil {
				ph.failed++
				res.problem("op %d: %v", r.op, r.err)
				return
			}
			ph.addOp(cost)
			if err := checkSolution(r.problem, r.sol); err != nil {
				res.problem("op %d: %v", r.op, err)
			}
			if r.op < w.cfg.qualityOps() {
				ph.quality[r.op] = r.sol.Quality
				ph.first = append(ph.first, digestEntry{r.op, r.sol.Sources, r.sol.Quality})
			}
			if rec != nil && c%fig6Universes == 0 {
				ph.cases = append(ph.cases, caseOf(r.problem, r.sol))
				ph.sols = append(ph.sols, r.sol)
			}
		})
		if err != nil {
			ph.attempted++
			ph.failed++
			res.problem("cell %d: %v", c, err)
			break
		}
		ph.addCreate(create)
	}
	ph.wall = sinceMs(start) / 1e3
	ph.finish(u0)
	return ph
}

// replayDigest re-solves the first cells untimed on fresh engines and
// returns the digest of the same operations.
func (w *fig6) replayDigest(cells int) (string, error) {
	var d digest
	var firstErr error
	for c := 0; c < cells; c++ {
		_, err := w.runCell(c, nil, nil, func(r opResult, _ opCost) {
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			if r.err == nil && r.op < w.cfg.qualityOps() {
				d.add(r.op, r.sol.Sources, r.sol.Quality)
			}
		})
		if err != nil {
			return "", err
		}
	}
	return d.String(), firstErr
}

func runFig6(cfg runConfig) (*result, error) {
	w, err := newFig6(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	rep := 0
	build := func() error {
		rep++
		u, err := decodeUniverse(w.ubytes[rep%fig6Universes])
		if err != nil {
			return err
		}
		_, err = engine.New(u)
		return err
	}
	var setup setupTimer
	if err := setup.sample(3*fig6Universes, build, nil); err != nil {
		return nil, err
	}
	// Warm-up: one untimed cell.
	if _, err := w.runCell(fig6WarmCell, nil, nil, func(opResult, opCost) {}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	minOps := cfg.minOps()
	if cfg.Trace {
		minOps = cfg.minTracedOps()
	}
	plain := w.timedPhase(cfg.phaseSeconds(), minOps, nil, nil, res)
	heap := liveHeapMB()
	res.Attempted, res.Failed = plain.attempted, plain.failed

	// Determinism: the first cells, re-solved on fresh engines, must give
	// the digest the timed phase recorded for them.
	replayCells := fig6ReplayCells
	if n := cfg.qualityOps() / fig6Steps; n < replayCells {
		replayCells = n
	}
	if got, err := w.replayDigest(replayCells); err != nil {
		res.problem("replay: %v", err)
	} else if want := plain.prefix(replayCells * fig6Steps); got != want {
		res.problem("replayed digest %s != timed digest %s for the first %d operations", got, want, replayCells*fig6Steps)
	}
	res.note("digest (sources, quality) of the first %d operations: %s", cfg.qualityOps(), plain.prefix(cfg.qualityOps()))

	if !cfg.Trace {
		if err := setup.sample(3*fig6Universes+1, build, nil); err != nil {
			return nil, err
		}
		plain.endToEnd(cfg, setup.median(res), heap, res)
		return res, nil
	}

	rec := newRecorder()
	eng := &engineStats{}
	traced := w.timedPhase(cfg.phaseSeconds(), cfg.minTracedOps(), rec, eng, res)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	pr := &probes{}
	if err := w.probe(traced, pr); err != nil {
		return nil, err
	}
	allocMB, gcs := plain.perOp()
	res.Metrics = layerMetrics(pr, eng, nil, nil, allocMB, gcs,
		overheadOf(plain.costPerOp(), traced.costPerOp()))
	res.Layers = aggregate(rec.snapshot(), len(traced.latMs))
	if err := finishSpans(cfg, rec, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (w *fig6) probe(ph *fig6Phase, pr *probes) error {
	// The replayed sets all come from cells over universe 0.
	if err := probeDecodeAndNew(w.ubytes[0], 9, pr); err != nil {
		return err
	}
	if err := probeVocabulary(w.setups[0].U, 0.65, 5, pr); err != nil {
		return err
	}
	if err := probeSolver(w.setups[0].U, sampleEvery(ph.cases, 30), pr); err != nil {
		return err
	}
	return probeCodecs(sampleEvery(ph.sols, 30), pr)
}

func (ph *fig6Phase) prefix(n int) string { return digestOf(ph.first, n) }

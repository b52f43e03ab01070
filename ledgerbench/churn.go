package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/synth"
)

// churn-refresh: universe churn on a large vocabulary. One client, in
// process. Each stream is a session over a synth.GenerateLarge universe
// whose vocabulary stays under the engine's dense-matrix limit, so the
// engine takes its default dense path. Each operation is one seeded
// mutation batch on one stream — adds from the stream's held-out pool,
// removes, cardinality updates — followed by the warm re-solve at m = 20.
// Operations rotate over the streams.
//
// Why: every batch makes the next solve rebuild the dense similarity
// matrix, so strsim does most of the work and Match little; the batch
// also drives the engine's churn maintenance (name refcounts, the
// signature union counter, the QEF context rebase). It is the only
// workload whose set-up is large.

const (
	churnSources = 600
	churnPool    = 400
	// churnConcepts × 4 spellings bounds the vocabulary.
	churnConcepts = 96
	// churnStreams independent universes share a run: how long a
	// re-solve takes depends on the universe, and averaging over several
	// keeps the seed from moving the figures much.
	churnStreams = 16
	churnM       = 20
	churnEvals   = 100
	// churnWarmBatches are applied untimed to every stream before the
	// timed phase.
	churnWarmBatches = 3
	// churnCheckEvery samples operations for the warm ≡ from-scratch check.
	churnCheckEvery = 50
	// churnSetupReps set-up builds are timed before the phase, and again
	// after it.
	churnSetupReps = 24
)

// churnStream is one universe and the session churning it.
type churnStream struct {
	seed   int64
	ubytes []byte
	pool   []model.Source
	prob   engine.Problem
	sess   *engine.Session
}

type churnWork struct {
	cfg     runConfig
	streams []*churnStream
}

func newChurn(cfg runConfig) (*churnWork, error) {
	n, pool := churnSources, churnPool
	if cfg.Smoke {
		n, pool = 120, 40
	}
	w := &churnWork{cfg: cfg}
	for j := 0; j < churnStreams; j++ {
		seed := cfg.Seed*churnStreams + int64(j)
		lc := synth.DefaultLargeConfig(n + pool)
		lc.Seed = seed
		// A fixed concept count under a nearly flat popularity curve puts
		// almost every spelling into the universe whatever the seed, so
		// the vocabulary (whose square the matrix rebuild costs) is about
		// the same size on every seed.
		lc.Concepts = churnConcepts
		lc.ZipfS = 1.01
		all, _, err := synth.GenerateLarge(lc)
		if err != nil {
			return nil, fmt.Errorf("generating universe: %w", err)
		}
		ub, err := json.Marshal(&model.Universe{Sources: all.Sources[:n]})
		if err != nil {
			return nil, fmt.Errorf("encoding universe: %w", err)
		}
		p := engine.DefaultProblem()
		p.MaxSources = churnM
		p.MaxEvals = churnEvals
		p.Seed = seed*7 + 3
		if cfg.Smoke {
			p.MaxSources, p.MaxEvals = 8, 30
		}
		w.streams = append(w.streams, &churnStream{seed: seed, ubytes: ub, pool: all.Sources[n:], prob: p})
	}
	return w, nil
}

// setup decodes the stream's universe, builds the engine and runs the
// initial cold solve: everything before the stream's first operation. It
// returns the cost of the session create (decode + engine.New).
func (s *churnStream) setup() (create opCost, err error) {
	clk := startOp()
	u, err := decodeUniverse(s.ubytes)
	if err != nil {
		return create, err
	}
	e, err := engine.New(u)
	if err != nil {
		return create, fmt.Errorf("engine.New: %w", err)
	}
	create = clk.stop()
	s.sess = engine.NewSession(e, s.prob)
	if _, err := s.sess.Solve(); err != nil {
		return create, fmt.Errorf("initial solve: %w", err)
	}
	return create, nil
}

// batch is the stream's mutation batch k: two adds from the held-out pool,
// two removes and two cardinality updates, with IDs relative to the state
// after the preceding mutations.
func (s *churnStream) batch(k int) []model.Mutation {
	n := s.sess.Engine().Universe().N()
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(k)))
	var muts []model.Mutation
	for i := 0; i < 2; i++ {
		src := s.pool[(2*k+i)%len(s.pool)]
		src.Attributes = append([]string(nil), src.Attributes...)
		muts = append(muts, model.Mutation{Op: engine.OpAdd, Source: src})
		n++
	}
	for i := 0; i < 2; i++ {
		muts = append(muts, model.Mutation{Op: engine.OpRemove, ID: rng.Intn(n)})
		n--
	}
	for i := 0; i < 2; i++ {
		card := int64(1_000 + rng.Intn(19_000))
		muts = append(muts, model.Mutation{Op: engine.OpUpdate, ID: rng.Intn(n), Cardinality: &card})
	}
	return muts
}

// refresh applies the stream's batch k and re-solves warm: one operation.
// When input is non-nil it receives the exact problem the re-solve ran.
func (s *churnStream) refresh(op int64, k int, rec *recorder, eng *engineStats, applyMs *[]float64, input *engine.Problem) (*engine.Solution, error) {
	root := rec.begin(op, -1, "op.refresh")
	defer rec.end(root)
	muts := s.batch(k)
	sp := rec.begin(op, root, "engine.Session.ApplyChurn")
	t0 := time.Now()
	_, err := s.sess.ApplyChurn(muts)
	if applyMs != nil {
		*applyMs = append(*applyMs, sinceMs(t0))
	}
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("batch %d: %w", k, err)
	}
	if input != nil {
		*input = s.sess.SolveInput()
	}
	sol, err := solveTraced(s.sess, rec, eng, op, root)
	if err != nil {
		return nil, fmt.Errorf("re-solve after batch %d: %w", k, err)
	}
	return sol, nil
}

// checkFresh is the churn contract, checked untimed: the warm re-solve
// equals building a new engine over the mutated universe and solving the
// same problem cold.
func (s *churnStream) checkFresh(input engine.Problem, warm *engine.Solution) error {
	fresh, err := engine.New(cloneUniverse(s.sess.Engine().Universe()))
	if err != nil {
		return fmt.Errorf("fresh engine: %w", err)
	}
	cold, err := fresh.Solve(&input)
	if err != nil {
		return fmt.Errorf("fresh solve: %w", err)
	}
	a, b := *warm, *cold
	a.Elapsed, b.Elapsed = 0, 0
	a.MatchCache, b.MatchCache = engine.CacheStats{}, engine.CacheStats{}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("warm re-solve (Q=%v, %d sources) differs from engine.New + cold solve (Q=%v, %d sources)",
			a.Quality, len(a.Sources), b.Quality, len(b.Sources))
	}
	return nil
}

// start builds every stream's session and applies its warm-up batches.
func (w *churnWork) start() error {
	for _, s := range w.streams {
		if _, err := s.setup(); err != nil {
			return err
		}
		for k := 0; k < churnWarmBatches; k++ {
			if _, err := s.refresh(-1, k, nil, nil, nil, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

type churnPhase struct {
	*phase
	sols    []*engine.Solution
	applyMs []float64
	checked int
}

// timedPhase runs operations, rotating over the streams, until the phase
// has lasted seconds and holds at least minOps operations. Sampled
// operations are checked against a from-scratch solve with the clock
// paused.
func (w *churnWork) timedPhase(seconds float64, minOps int, rec *recorder, eng *engineStats, res *result) *churnPhase {
	ph := &churnPhase{phase: newPhase()}
	settle()
	u0 := usageNow()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds || len(ph.latMs) < minOps; i++ {
		s := w.streams[i%len(w.streams)]
		k := churnWarmBatches + i/len(w.streams)
		check := i%churnCheckEvery == churnCheckEvery/2 || (w.cfg.Smoke && i == 1)
		var input *engine.Problem
		if check {
			input = &engine.Problem{}
		}
		var applyMs *[]float64
		if rec != nil {
			applyMs = &ph.applyMs
		}
		clk := startOp()
		sol, err := s.refresh(int64(i), k, rec, eng, applyMs, input)
		cost := clk.stop()
		ph.attempted++
		if err != nil {
			ph.failed++
			res.problem("op %d: %v", i, err)
			break
		}
		ph.addOp(cost)
		if err := checkSolution(s.sess.History()[len(s.sess.History())-1].Problem, sol); err != nil {
			res.problem("op %d: %v", i, err)
		}
		if i < w.cfg.qualityOps() {
			ph.quality[i] = sol.Quality
		}
		if rec != nil && i%7 == 0 {
			ph.sols = append(ph.sols, sol)
		}
		if check {
			ph.pause(func() {
				if err := s.checkFresh(*input, sol); err != nil {
					res.problem("op %d: %v", i, err)
				}
				ph.checked++
			})
		}
	}
	ph.wall = sinceMs(start) / 1e3
	ph.finish(u0)
	return ph
}

func runChurn(cfg runConfig) (*result, error) {
	w, err := newChurn(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	// Each set-up sample is one stream's session create from its universe
	// bytes plus the initial solve; create_cost_p50_ref reads the create
	// part of the same builds.
	var createMs, createCPU []float64
	rep := 0
	build := func() error {
		rep++
		c, err := w.streams[rep%len(w.streams)].setup()
		createMs = append(createMs, c.wallMs)
		createCPU = append(createCPU, c.cpuMs)
		return err
	}
	var setup setupTimer
	if err := setup.sample(churnSetupReps, build, nil); err != nil {
		return nil, err
	}
	if err := w.start(); err != nil {
		return nil, err
	}
	minOps := cfg.minOps()
	if cfg.Trace {
		minOps = cfg.minTracedOps()
	}
	plain := w.timedPhase(cfg.phaseSeconds(), minOps, nil, nil, res)
	heap := liveHeapMB()
	runtime.KeepAlive(w.streams)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	res.note("warm ≡ from-scratch checks: %d sampled operations", plain.checked)
	if plain.checked == 0 {
		res.problem("no operation was sampled for the warm ≡ from-scratch check")
	}
	if !cfg.Trace {
		if err := setup.sample(churnSetupReps, build, nil); err != nil {
			return nil, err
		}
		plain.createMs, plain.createCPU, plain.createRef = createMs, createCPU, setup.refs
		plain.endToEnd(cfg, setup.median(res), heap, res)
		return res, nil
	}

	if err := w.start(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	eng := &engineStats{}
	traced := w.timedPhase(cfg.phaseSeconds(), cfg.minTracedOps(), rec, eng, res)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	s := w.streams[0]
	pr := &probes{}
	if err := probeDecodeAndNew(s.ubytes, 5, pr); err != nil {
		return nil, err
	}
	u := s.sess.Engine().Universe()
	if err := probeVocabulary(u, s.prob.Theta, 5, pr); err != nil {
		return nil, err
	}
	// Source IDs shift with every batch, so only the stream's last solve
	// is valid against its current universe.
	last := s.sess.History()[len(s.sess.History())-1]
	if err := probeSolver(u, []matchCase{caseOf(last.Problem, last.Solution)}, pr); err != nil {
		return nil, err
	}
	if err := probeCodecs(sampleEvery(traced.sols, 30), pr); err != nil {
		return nil, err
	}
	allocMB, gcs := plain.perOp()
	res.Metrics = layerMetrics(pr, eng, traced.applyMs, nil, allocMB, gcs,
		overheadOf(plain.costPerOp(), traced.costPerOp()))
	res.Layers = aggregate(rec.snapshot(), len(traced.latMs))
	if err := finishSpans(cfg, rec, res); err != nil {
		return nil, err
	}
	return res, nil
}

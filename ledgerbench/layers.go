package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"ube/internal/cluster"
	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/schemaio"
	"ube/internal/strsim"
	"ube/internal/trace"
)

// Replay probes time the layers' public functions on the run's own
// inputs and outputs, from outside the program: the workload's universe,
// the candidate sets its solves chose, and the solutions it returned.
// Each probe reports a median over repeated calls.

const (
	// replayReps is how many times a probe repeats a call it times.
	replayReps = 15
	// minShareEvents is the smallest denominator a per-layer share is
	// computed from.
	minShareEvents = 20
)

// timeCalls runs fn reps times and returns the median call time in ns.
func timeCalls(reps int, fn func() error) (float64, error) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, sinceMs(t0)*1e6)
	}
	return median(samples), nil
}

// matchCase is one candidate set with the clustering parameters its
// solve used.
type matchCase struct {
	S     []int
	C     []int
	G     []model.GA
	Theta float64
	Beta  int
	W     qef.Weights
	Chars map[string]qef.Aggregator
}

func caseOf(p engine.Problem, sol *engine.Solution) matchCase {
	return matchCase{
		S:     append([]int(nil), sol.Sources...),
		C:     p.Constraints.Sources,
		G:     p.Constraints.GAs,
		Theta: p.Theta,
		Beta:  p.Beta,
		W:     p.Weights.Clone(),
		Chars: p.Characteristics,
	}
}

// probes holds every replayed per-layer figure.
type probes struct {
	vocab                  int
	matrixMs, sparseMs     float64
	block                  strsim.BlockStats
	matchUs, qefUs, pcsaUs float64
	newMs                  float64
	decodeMs               float64
	encJSONUs, encBinaryUs float64
	jsonBytes              float64
}

// probeVocabulary times BuildMatrix and BuildSparse over the universe's
// vocabulary, each on a fresh cache (a cache memoizes pair scores, which
// would make repeats free).
func probeVocabulary(u *model.Universe, theta float64, reps int, pr *probes) error {
	fresh := func() *strsim.Cache {
		c := strsim.NewCache(nil)
		for i := range u.Sources {
			for _, a := range u.Sources[i].Attributes {
				c.Intern(a)
			}
		}
		return c
	}
	pr.vocab = fresh().Len()
	var err error
	pr.matrixMs, err = timeFresh(reps, fresh, func(c *strsim.Cache) error {
		_, err := c.BuildMatrix()
		return err
	})
	if err != nil {
		return fmt.Errorf("matrix build: %w", err)
	}
	pr.sparseMs, err = timeFresh(reps, fresh, func(c *strsim.Cache) error {
		_, st, err := c.BuildSparse(theta, strsim.BlockConfig{})
		pr.block = st
		return err
	})
	if err != nil {
		return fmt.Errorf("sparse build: %w", err)
	}
	return nil
}

// timeFresh times fn on a fresh cache per repetition (cache building
// untimed) and returns the median in ms.
func timeFresh(reps int, fresh func() *strsim.Cache, fn func(*strsim.Cache) error) (float64, error) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		c := fresh()
		t0 := time.Now()
		if err := fn(c); err != nil {
			return 0, err
		}
		samples = append(samples, sinceMs(t0))
	}
	return median(samples), nil
}

// probeSolver replays sampled candidate sets through cluster.Match (with
// the engine's fast-path inputs: dense matrix, ≥θ neighbors, interned
// name IDs, seed pairs), the composite QEF and the PCSA union estimate.
func probeSolver(u *model.Universe, cases []matchCase, pr *probes) error {
	if len(cases) == 0 {
		return fmt.Errorf("no candidate sets to replay")
	}
	sim := strsim.NewCache(nil)
	nameIDs := make([][]int, len(u.Sources))
	for i := range u.Sources {
		nameIDs[i] = make([]int, len(u.Sources[i].Attributes))
		for a, name := range u.Sources[i].Attributes {
			nameIDs[i][a] = sim.Intern(name)
		}
	}
	mat, err := sim.BuildMatrix()
	if err != nil {
		return fmt.Errorf("matrix for match replay: %w", err)
	}
	ctx, err := qef.NewContext(u)
	if err != nil {
		return fmt.Errorf("qef context: %w", err)
	}
	type prepared struct {
		cfg  cluster.Config
		comp *qef.Composite
		set  *model.SourceSet
		sigs []*pcsa.Sketch
		c    matchCase
	}
	var preps []prepared
	byTheta := map[float64]cluster.Config{}
	for _, c := range cases {
		cfg, ok := byTheta[c.Theta]
		if !ok {
			nbrs := mat.Neighbors(c.Theta)
			cfg = cluster.Config{Theta: c.Theta, Sim: sim, Scores: mat, Neighbors: nbrs, NameIDs: nameIDs,
				Seed: cluster.BuildSeedPairs(u, nameIDs, nbrs, mat, c.Theta), Scratch: &cluster.Scratch{}}
			byTheta[c.Theta] = cfg
		}
		cfg.Beta = c.Beta
		comp, err := compositeFor(ctx, c)
		if err != nil {
			return err
		}
		set := model.NewSourceSet(u.N())
		var sigs []*pcsa.Sketch
		for _, s := range c.S {
			set.Add(s)
			if sig := u.Sources[s].Signature; sig != nil {
				sigs = append(sigs, sig)
			}
		}
		preps = append(preps, prepared{cfg: cfg, comp: comp, set: set, sigs: sigs, c: c})
	}
	var matchNs, qefNs, pcsaNs []float64
	for _, p := range preps {
		p := p
		ns, _ := timeCalls(replayReps, func() error {
			cluster.Match(u, p.c.S, p.c.C, p.c.G, p.cfg)
			return nil
		})
		matchNs = append(matchNs, ns)
		ns, _ = timeCalls(replayReps, func() error {
			p.comp.Eval(ctx, p.set)
			return nil
		})
		qefNs = append(qefNs, ns)
		if len(p.sigs) > 0 {
			ns, err := timeCalls(replayReps, func() error {
				un, err := pcsa.Union(p.sigs...)
				if err == nil {
					un.Estimate()
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("pcsa union: %w", err)
			}
			pcsaNs = append(pcsaNs, ns)
		}
	}
	pr.matchUs = median(matchNs) / 1e3
	pr.qefUs = median(qefNs) / 1e3
	pr.pcsaUs = median(pcsaNs) / 1e3
	return nil
}

// compositeFor rebuilds the engine's non-match composite for a case: the
// data QEFs, one characteristic QEF per configured characteristic in
// name order, weights rescaled without the match weight.
func compositeFor(ctx *qef.Context, c matchCase) (*qef.Composite, error) {
	qefs := []qef.QEF{qef.Card{}, qef.Coverage{}, qef.Redundancy{}}
	names := make([]string, 0, len(c.Chars))
	for n := range c.Chars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		qefs = append(qefs, qef.Characteristic{Char: n, Agg: c.Chars[n]})
	}
	rest := qef.Weights{}
	for k, v := range c.W {
		if k != engine.MatchQEFName {
			rest[k] = v
		}
	}
	comp, err := qef.NewComposite(qefs, rest.Normalized())
	if err != nil {
		return nil, fmt.Errorf("composite for replay: %w", err)
	}
	return comp, nil
}

// probeCodecs replays sampled solutions through the JSON and binary
// solution encoders and reports the mean JSON size.
func probeCodecs(sols []*engine.Solution, pr *probes) error {
	var jsonNs, binNs, size []float64
	for _, sol := range sols {
		doc := schemaio.EncodeSolution(sol)
		ns, err := timeCalls(replayReps, func() error {
			_, err := json.Marshal(schemaio.EncodeSolution(sol))
			return err
		})
		if err != nil {
			return fmt.Errorf("json solution encode: %w", err)
		}
		jsonNs = append(jsonNs, ns)
		ns, err = timeCalls(replayReps, func() error {
			_, err := schemaio.EncodeBinarySolution(schemaio.EncodeSolution(sol))
			return err
		})
		if err != nil {
			return fmt.Errorf("binary solution encode: %w", err)
		}
		binNs = append(binNs, ns)
		b, _ := json.Marshal(doc)
		size = append(size, float64(len(b)))
	}
	pr.encJSONUs = median(jsonNs) / 1e3
	pr.encBinaryUs = median(binNs) / 1e3
	pr.jsonBytes = mean(size)
	return nil
}

// decodeUniverse strictly decodes a universe document, as the server
// decodes a create body.
func decodeUniverse(data []byte) (*model.Universe, error) {
	var u model.Universe
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		return nil, fmt.Errorf("decoding universe: %w", err)
	}
	return &u, nil
}

// probeDecodeAndNew times the universe decode and engine.New.
func probeDecodeAndNew(ubytes []byte, reps int, pr *probes) error {
	var u *model.Universe
	ns, err := timeCalls(reps, func() error {
		var err error
		u, err = decodeUniverse(ubytes)
		return err
	})
	if err != nil {
		return err
	}
	pr.decodeMs = ns / 1e6
	ns, err = timeCalls(reps, func() error {
		_, err := engine.New(u)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	pr.newMs = ns / 1e6
	return nil
}

// sampleEvery picks at most k items spread evenly over xs.
func sampleEvery[T any](xs []T, k int) []T {
	if len(xs) <= k {
		return xs
	}
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[i*len(xs)/k])
	}
	return out
}

// serveLayers holds what only the served workload measures.
type serveLayers struct {
	proxySolveMs, proxyCreateMs     []float64
	handlerSolveMs, handlerCreateMs []float64
	waitMs                          []float64
	shardOps                        map[string]int
	rejections                      int
	respBytes                       []float64
	wal                             walTotals
	ops                             int
}

// layerMetrics assembles every per-layer metric. serve is nil for the
// in-process workloads, whose router, server and WAL figures are 0.
func layerMetrics(pr *probes, eng *engineStats, applyChurnMs []float64, serve *serveLayers,
	allocMBPerOp, gcPerOp, overhead float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	m["router.shard_imbalance"] = 1
	m["schemaio.response_bytes"] = pr.jsonBytes
	if serve != nil {
		m["router.proxy_solve_ms"] = median(serve.proxySolveMs)
		m["router.proxy_create_ms"] = median(serve.proxyCreateMs)
		m["router.shard_imbalance"] = imbalance(serve.shardOps)
		m["server.handler_solve_ms"] = median(serve.handlerSolveMs)
		m["server.handler_create_ms"] = median(serve.handlerCreateMs)
		m["server.wait_ms"] = median(serve.waitMs)
		m["server.rejections"] = float64(serve.rejections)
		m["schemaio.response_bytes"] = mean(serve.respBytes)
		if serve.ops > 0 {
			m["wal.appends_per_op"] = float64(serve.wal.Appends) / float64(serve.ops)
			m["wal.bytes_per_op"] = float64(serve.wal.Bytes) / float64(serve.ops)
		}
		if serve.wal.Fsyncs > 0 {
			m["wal.records_per_fsync"] = float64(serve.wal.Appends) / float64(serve.wal.Fsyncs)
		}
		if p50, err := histQuantile(serve.wal.Flush, 0.5, 1); err == nil {
			m["wal.flush_p50_ms"] = p50
		}
	}
	m["schemaio.universe_decode_ms"] = pr.decodeMs
	m["schemaio.solution_encode_json_us"] = pr.encJSONUs
	m["schemaio.solution_encode_binary_us"] = pr.encBinaryUs

	m["engine.new_ms"] = pr.newMs
	m["engine.solve_ms"] = median(eng.solveMs)
	m["engine.setup_span_ms"] = median(eng.setupMs)
	m["engine.final_span_ms"] = median(eng.finalMs)
	m["engine.apply_churn_ms"] = median(applyChurnMs)
	// Shares refuse tiny denominators and then read 0.
	hits, look := eng.counts[trace.CMatchHits], eng.counts[trace.CMatchHits]+eng.counts[trace.CMatchMisses]
	m["engine.match_hit_ratio"], _ = share(float64(hits), float64(look), minShareEvents)

	m["strsim.vocab"] = float64(pr.vocab)
	m["strsim.build_matrix_ms"] = pr.matrixMs
	m["strsim.build_sparse_ms"] = pr.sparseMs
	m["block.candidates"] = float64(pr.block.Candidates)
	if pruned, err := share(float64(pr.block.Pruned), float64(pr.block.Candidates), minShareEvents); err == nil {
		m["block.precision"] = 1 - pruned
	}

	m["search.evals"] = eng.perSolve(trace.CSearchEvals)
	m["search.batches"] = eng.perSolve(trace.CSearchBatches)
	if eng.searchNs > 0 {
		m["search.evals_per_s"] = float64(eng.counts[trace.CSearchEvals]) / (float64(eng.searchNs) / 1e9)
	}
	m["bound.skips"] = eng.perSolve(trace.CBoundSkips)

	m["cluster.match_us"] = pr.matchUs
	m["match.runs"] = eng.perSolve(trace.CMatchRuns)
	m["cluster.pairs"] = eng.perSolve(trace.CClusterPairs)
	m["cluster.pops"] = eng.perSolve(trace.CClusterPops)
	m["cluster.rounds"] = eng.perSolve(trace.CClusterRounds)
	if solve := median(eng.solveMs); solve > 0 {
		m["cluster.match_share_est"] = m["match.runs"] * pr.matchUs / (solve * 1e3)
	}

	m["qef.eval_us"] = pr.qefUs
	m["qef.full"] = eng.perSolve(trace.CQEFFull)
	m["qef.delta"] = eng.perSolve(trace.CQEFDelta)
	delta, full := eng.counts[trace.CQEFDelta], eng.counts[trace.CQEFFull]
	m["qef.delta_share"], _ = share(float64(delta), float64(delta+full), minShareEvents)
	m["pcsa.union_estimate_us"] = pr.pcsaUs
	m["pcsa.unions"] = eng.perSolve(trace.CSketchUnions)
	m["pcsa.snapshotUnions"] = eng.perSolve(trace.OSnapshotUnions)

	m["go.alloc_mb_per_op"] = allocMBPerOp
	m["go.gc_per_op"] = gcPerOp
	m["trace.overhead"] = overhead
	return m
}

// imbalance is the busiest shard's operation count over the mean.
func imbalance(perShard map[string]int) float64 {
	if len(perShard) == 0 {
		return 0
	}
	total, most := 0, 0
	for _, n := range perShard {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most) / (float64(total) / float64(len(perShard)))
}

// overheadOf compares the traced phase's cost per operation (CPU time in
// reference-kernel units) with the untraced phase's: 0.05 means tracing
// cost 5 % more CPU per operation.
func overheadOf(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return traced/untraced - 1
}

package experiments

import (
	"fmt"
	"reflect"
	"time"

	"ube/internal/engine"
	"ube/internal/synth"
	"ube/internal/trace"
)

// This file holds the scale experiment behind BENCH_scale.json: solve
// source selection over internet-scale universes (10³–10⁵ sources, a
// vocabulary that grows with the universe) on the blocking-index sparse
// path, and verify on small universes that the sparse path solves
// exactly like the dense matrix it replaces.

// ScaleRow is one universe size of the sweep. The block.* counters come
// from the solve trace and document the sublinear candidate generation:
// BlockCandidates is what the index surfaced for exact verification,
// QuadraticPairs what the dense path would have scored.
type ScaleRow struct {
	// U is the universe size (number of sources).
	U int `json:"u"`
	// Vocab is the number of distinct normalized attribute names.
	Vocab int `json:"vocab"`
	// QuadraticPairs is vocab·(vocab−1)/2 — the all-pairs baseline the
	// blocking index avoids.
	QuadraticPairs int64 `json:"quadratic_pairs"`
	// BlockProbes, BlockCandidates and BlockPruned are the blocking
	// index's trace counters for the sparse build.
	BlockProbes     int64 `json:"block_probes"`
	BlockCandidates int64 `json:"block_candidates"`
	BlockPruned     int64 `json:"block_pruned"`
	// CandidateSharePct is BlockCandidates as a percentage of
	// QuadraticPairs.
	CandidateSharePct float64 `json:"candidate_share_pct"`
	// ClusterPairs counts ≥θ pairs admitted to clustering agendas across
	// the solve.
	ClusterPairs int64 `json:"cluster_pairs"`
	// BoundSkips counts solver candidates settled by the objective upper
	// bound instead of an exact evaluation (pruning is enabled for the
	// sweep; it never changes the solution).
	BoundSkips int64 `json:"bound_skips"`
	// GenSeconds and SolveSeconds time generation and the solve (the
	// solve includes the lazy sparse build, charged to it by design).
	GenSeconds   float64 `json:"gen_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	// Quality, Feasible and Evals describe the solution.
	Quality  float64 `json:"quality"`
	Feasible bool    `json:"feasible"`
	Evals    int     `json:"evals"`
}

// ScaleParityRow is one dense-vs-sparse differential check: the same
// universe and problem solved on both scorer paths. With the default
// exact-recall prefix blocking the two solves are bit-identical, so
// SameSources is true and GapPct is 0.
type ScaleParityRow struct {
	U             int     `json:"u"`
	SameSources   bool    `json:"same_sources"`
	QualityDense  float64 `json:"quality_dense"`
	QualitySparse float64 `json:"quality_sparse"`
	// GapPct is |dense − sparse| / dense × 100 (0 when dense is 0).
	GapPct float64 `json:"gap_pct"`
}

// ScaleResult is the full scale experiment output.
type ScaleResult struct {
	// M is the selection bound used throughout.
	M int `json:"m"`
	// Rows is the sweep over universe sizes, Parity the dense-vs-sparse
	// checks on small universes.
	Rows   []ScaleRow       `json:"rows"`
	Parity []ScaleParityRow `json:"parity"`
}

// ScaleSizes returns the sweep's universe sizes: 10³–10⁵, or just 10³
// under Quick (the CI smoke scale).
func ScaleSizes(o Options) []int {
	if o.Quick {
		return []int{1_000}
	}
	return []int{1_000, 10_000, 100_000}
}

// scaleParitySizes are the universe sizes of the dense-vs-sparse
// differential; small enough that the dense matrix exists to compare
// against.
var scaleParitySizes = []int{40, 700, 1_000}

// Scale runs the scale experiment: the large-universe sweep on the
// sparse path (with bound pruning on, which never changes solutions),
// then the dense-vs-sparse parity differential.
func Scale(o Options) (*ScaleResult, error) {
	const m = 20
	res := &ScaleResult{M: m}
	for _, n := range ScaleSizes(o) {
		cfg := synth.DefaultLargeConfig(n)
		cfg.Seed += o.Seed
		t0 := time.Now()
		u, _, err := synth.GenerateLarge(cfg)
		if err != nil {
			return nil, err
		}
		gen := time.Since(t0).Seconds()
		// Force the sparse path at every size so the whole sweep
		// measures the blocking index (at 10³ the vocabulary would
		// otherwise fit the dense matrix).
		e, err := engine.New(u, engine.WithSparseScores())
		if err != nil {
			return nil, err
		}
		p := engine.DefaultProblem()
		p.MaxSources = m
		p.MaxEvals = o.evals()
		p.Seed = int64(n)
		tr := trace.New()
		tr.Label = fmt.Sprintf("scale u=%d", n)
		p.Trace = tr
		t1 := time.Now()
		sol, err := e.Solve(&p)
		if err != nil {
			return nil, err
		}
		solve := time.Since(t1).Seconds()
		totals := tr.Finish().Totals()
		vocab := e.VocabularySize()
		quad := int64(vocab) * int64(vocab-1) / 2
		row := ScaleRow{
			U:               n,
			Vocab:           vocab,
			QuadraticPairs:  quad,
			BlockProbes:     totals[trace.CBlockProbes],
			BlockCandidates: totals[trace.CBlockCandidates],
			BlockPruned:     totals[trace.CBlockPruned],
			ClusterPairs:    totals[trace.CClusterPairs],
			BoundSkips:      totals[trace.CBoundSkips],
			GenSeconds:      gen,
			SolveSeconds:    solve,
			Quality:         sol.Quality,
			Feasible:        sol.Feasible,
			Evals:           sol.Evals,
		}
		if quad > 0 {
			row.CandidateSharePct = 100 * float64(row.BlockCandidates) / float64(quad)
		}
		res.Rows = append(res.Rows, row)
	}

	for _, n := range scaleParitySizes {
		cfg := synth.DefaultLargeConfig(n)
		cfg.Seed += o.Seed
		u, _, err := synth.GenerateLarge(cfg)
		if err != nil {
			return nil, err
		}
		dense, err := engine.New(u)
		if err != nil {
			return nil, err
		}
		sparse, err := engine.New(u, engine.WithSparseScores())
		if err != nil {
			return nil, err
		}
		p := engine.DefaultProblem()
		p.MaxSources = m
		p.MaxEvals = o.evals()
		p.Seed = int64(n) * 13
		dsol, err := dense.Solve(&p)
		if err != nil {
			return nil, err
		}
		q := p
		ssol, err := sparse.Solve(&q)
		if err != nil {
			return nil, err
		}
		row := ScaleParityRow{
			U:             n,
			SameSources:   reflect.DeepEqual(dsol.Sources, ssol.Sources),
			QualityDense:  dsol.Quality,
			QualitySparse: ssol.Quality,
		}
		//ube:float-exact guards division by an exact zero only
		if dsol.Quality != 0 {
			row.GapPct = 100 * abs(dsol.Quality-ssol.Quality) / dsol.Quality
		}
		if !row.SameSources && row.GapPct > 1 {
			return nil, fmt.Errorf("scale: sparse solve diverged from dense at U=%d (gap %.2f%%)", n, row.GapPct)
		}
		res.Parity = append(res.Parity, row)
	}
	return res, nil
}

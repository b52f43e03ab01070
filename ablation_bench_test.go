// Ablation benchmarks for the design choices DESIGN.md calls out: the
// θ-threshold name adjacency index, the dense precomputed similarity
// matrix, Match memoization, PCSA sketch sizing, and tabu tenure. Each
// sub-benchmark pair isolates one mechanism so its contribution is
// directly readable from ns/op (or the reported metric).
package ube

import (
	"fmt"
	"math"
	"testing"

	"ube/internal/cluster"
	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/search"
	"ube/internal/strsim"
	"ube/internal/synth"
)

// ablationUniverse generates the shared workload for matcher ablations.
func ablationUniverse(b *testing.B, n int) *model.Universe {
	b.Helper()
	cfg := synth.QuickConfig(n)
	cfg.WithSignatures = false
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// matcherConfigs builds the cluster configs for the index/matrix ablation.
// mustAblationMatrix builds the dense matrix for a benchmark vocabulary,
// panicking on the (impossible at these sizes) over-limit error.
func mustAblationMatrix(c *strsim.Cache) *strsim.Matrix {
	m, err := c.BuildMatrix()
	if err != nil {
		panic(err)
	}
	return m
}

func matcherConfigs(u *model.Universe) map[string]cluster.Config {
	mkCache := func() *strsim.Cache {
		c := strsim.NewCache(nil)
		for i := range u.Sources {
			for _, a := range u.Sources[i].Attributes {
				c.Intern(a)
			}
		}
		return c
	}
	lazy := mkCache()
	dense := mkCache()
	matrix := mustAblationMatrix(dense)
	indexed := mkCache()
	idxMatrix := mustAblationMatrix(indexed)

	return map[string]cluster.Config{
		"lazy-cache": {Theta: 0.65, Beta: 2, Sim: lazy},
		"matrix":     {Theta: 0.65, Beta: 2, Sim: dense, Scores: matrix},
		"matrix+index": {
			Theta: 0.65, Beta: 2, Sim: indexed,
			Scores: idxMatrix, Neighbors: idxMatrix.Neighbors(0.65),
		},
	}
}

// BenchmarkAblationMatcherScoring isolates the scoring substrate of
// Algorithm 1: lazy mutex-guarded cache, dense precomputed matrix, and
// matrix plus the ≥θ adjacency index used to prune pair enumeration.
func BenchmarkAblationMatcherScoring(b *testing.B) {
	u := ablationUniverse(b, 60)
	S := make([]int, 20)
	for i := range S {
		S[i] = i * 3
	}
	for _, name := range []string{"lazy-cache", "matrix", "matrix+index"} {
		cfg := matcherConfigs(u)[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cluster.Match(u, S, nil, nil, cfg)
			}
		})
	}
}

// BenchmarkAblationMatchCache quantifies the engine's per-solve component
// memo by running identical solves with and without it.
func BenchmarkAblationMatchCache(b *testing.B) {
	cfg := synth.QuickConfig(60)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, cached := range []bool{true, false} {
		name := "memoized"
		var opts []engine.Option
		if !cached {
			name = "uncached"
			opts = append(opts, engine.WithoutMatchCache())
		}
		b.Run(name, func(b *testing.B) {
			e, err := engine.New(u, opts...)
			if err != nil {
				b.Fatal(err)
			}
			p := engine.DefaultProblem()
			p.MaxSources = 10
			p.MaxEvals = 2000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(&p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSketchSize sweeps the PCSA bitmap count, reporting the
// accuracy/memory trade: worst-case union-estimation error (percent) and
// bytes per source.
func BenchmarkAblationSketchSize(b *testing.B) {
	const distinct = 50000
	for _, maps := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("maps=%d", maps), func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				worst = 0
				for seed := uint64(1); seed <= 3; seed++ {
					a := pcsa.MustNew(maps, seed)
					c := pcsa.MustNew(maps, seed)
					for t := 0; t < distinct/2; t++ {
						a.AddUint64(uint64(t))
					}
					for t := distinct / 4; t < distinct; t++ {
						c.AddUint64(uint64(t))
					}
					union, err := pcsa.Union(a, c)
					if err != nil {
						b.Fatal(err)
					}
					e := math.Abs(union.Estimate()-distinct) / distinct * 100
					if e > worst {
						worst = e
					}
				}
			}
			b.ReportMetric(worst, "worstErr%")
			b.ReportMetric(float64(maps*8), "bytes/source")
		})
	}
}

// BenchmarkAblationTabuTenure sweeps the tabu tenure on the µBE objective,
// reporting solution quality per setting at a fixed budget.
func BenchmarkAblationTabuTenure(b *testing.B) {
	cfg := synth.QuickConfig(60)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(u)
	if err != nil {
		b.Fatal(err)
	}
	for _, tenure := range []int{2, 8, 20} {
		b.Run(fmt.Sprintf("tenure=%d", tenure), func(b *testing.B) {
			t := search.NewTabu()
			t.Tenure = tenure
			q := 0.0
			for i := 0; i < b.N; i++ {
				p := engine.DefaultProblem()
				p.MaxSources = 10
				p.MaxEvals = 1500
				p.Optimizer = t
				sol, err := e.Solve(&p)
				if err != nil {
					b.Fatal(err)
				}
				q = sol.Quality
			}
			b.ReportMetric(q, "quality")
		})
	}
}

// BenchmarkAblationWarmStart measures what warm-starting a solve from a
// converged solution buys over a cold start at a small refinement budget.
func BenchmarkAblationWarmStart(b *testing.B) {
	cfg := synth.QuickConfig(60)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(u)
	if err != nil {
		b.Fatal(err)
	}
	base := engine.DefaultProblem()
	base.MaxSources = 10
	base.MaxEvals = 4000
	ref, err := e.Solve(&base)
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			q := 0.0
			for i := 0; i < b.N; i++ {
				p := engine.DefaultProblem()
				p.MaxSources = 10
				p.MaxEvals = 400 // refinement-sized budget
				if warm {
					p.InitialSources = ref.Sources
				}
				sol, err := e.Solve(&p)
				if err != nil {
					b.Fatal(err)
				}
				q = sol.Quality
			}
			b.ReportMetric(q, "quality")
		})
	}
}

// BenchmarkAblationParallelSolve measures the wall-clock effect of fanning
// candidate evaluations across workers inside the solver.
func BenchmarkAblationParallelSolve(b *testing.B) {
	cfg := synth.QuickConfig(60)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// A fresh engine per sub-benchmark: a shared match memo
			// would let later runs ride the earlier runs' cache.
			e, err := engine.New(u)
			if err != nil {
				b.Fatal(err)
			}
			p := engine.DefaultProblem()
			p.MaxSources = 12
			p.MaxEvals = 4000
			p.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(&p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

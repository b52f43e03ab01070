package engine

import (
	"math/rand"
	"testing"

	"ube/internal/model"
	"ube/internal/synth"
)

func BenchmarkApplyChurn10k(b *testing.B) {
	cfg := synth.QuickConfig(10_000)
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: cfg.Seed + 71, Steps: 200, MinSources: 20})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(cloneUniverse(base), WithSparseScores())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyChurn(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineNew10k(b *testing.B) {
	cfg := synth.QuickConfig(10_000)
	base, _, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: cfg.Seed + 71, Steps: 1, MinSources: 20})
	if err != nil {
		b.Fatal(err)
	}
	clones := make([]*model.Universe, 0, 8)
	for i := 0; i < 8; i++ {
		clones = append(clones, cloneUniverse(base))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(clones[i%len(clones)], WithSparseScores()); err != nil {
			b.Fatal(err)
		}
	}
}

// denseChurnSession is the churn-refresh shape on the default dense
// path: a session, after its cold solve at m = 20 with 100 evaluations,
// over 600 sources of a synth.GenerateLarge universe (about 360 names),
// and a pool of held-out sources to add.
func denseChurnSession(b *testing.B) (*Session, []model.Source) {
	lc := synth.DefaultLargeConfig(1000)
	lc.Concepts, lc.ZipfS = 96, 1.01
	all, _, err := synth.GenerateLarge(lc)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(&model.Universe{Sources: append([]model.Source(nil), all.Sources[:600]...)})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultProblem()
	p.MaxSources, p.MaxEvals = 20, 100
	s := NewSession(e, p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	return s, all.Sources[600:]
}

// denseChurnBatch is churn-refresh's i-th batch: two adds from the pool,
// two removes and two cardinality updates.
func denseChurnBatch(i, n int, pool []model.Source, rng *rand.Rand) []Mutation {
	var muts []Mutation
	for k := 0; k < 2; k++ {
		src := pool[(2*i+k)%len(pool)]
		src.Attributes = append([]string(nil), src.Attributes...)
		muts = append(muts, Mutation{Op: OpAdd, Source: src})
	}
	n += 2
	for k := 0; k < 2; k++ {
		muts = append(muts, Mutation{Op: OpRemove, ID: rng.Intn(n - k)})
	}
	for k := 0; k < 2; k++ {
		card := int64(1_000 + rng.Intn(19_000))
		muts = append(muts, Mutation{Op: OpUpdate, ID: rng.Intn(n - 2), Cardinality: &card})
	}
	return muts
}

// BenchmarkApplyChurnDense600 is the churn layer alone on churn-refresh's
// shape: Session.ApplyChurn of one batch, without the re-solve.
func BenchmarkApplyChurnDense600(b *testing.B) {
	s, pool := denseChurnSession(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ApplyChurn(denseChurnBatch(i, s.Engine().Universe().N(), pool, rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseChurnRefresh is one churn-refresh operation on the
// default dense path: a denseChurnBatch, then the session's warm
// re-solve.
func BenchmarkDenseChurnRefresh(b *testing.B) {
	s, pool := denseChurnSession(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ApplyChurn(denseChurnBatch(i, s.Engine().Universe().N(), pool, rng)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/synth"
)

// BenchmarkSeedPairsSparse measures seed-pair construction on the
// blocking-index path: the sparse table (built once, outside the loop)
// stands in for the dense matrix as both adjacency and Table, the
// configuration the engine uses on large vocabularies.
func BenchmarkSeedPairsSparse(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	cores := []string{"title", "author", "isbn", "price", "publisher", "year", "edition", "format"}
	suffixes := []string{"", "s", " id", " code"}
	schemas := make([][]string, 200)
	for i := range schemas {
		k := 3 + r.Intn(4)
		seen := map[string]bool{}
		for len(schemas[i]) < k {
			name := cores[r.Intn(len(cores))] + suffixes[r.Intn(len(suffixes))]
			if !seen[name] {
				seen[name] = true
				schemas[i] = append(schemas[i], name)
			}
		}
		// A per-source unique attribute keeps the vocabulary growing with
		// the universe, as in the internet-scale workload.
		schemas[i] = append(schemas[i], fmt.Sprintf("local field %03d", i))
	}
	u := mkUniverse(schemas...)
	sim := strsim.NewCache(nil)
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			sim.Intern(a)
		}
	}
	theta := 0.65
	sp, _, err := sim.BuildSparse(theta, strsim.BlockConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ids := buildNameIDs(u, sim)
	nbrs := sp.Neighbors(theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := BuildSeedPairs(u, ids, nbrs, sp, theta); got.Len() == 0 {
			b.Fatal("no seed pairs on overlapping schemas")
		}
	}
}

// BenchmarkSeedPairsChurn measures the agenda's upkeep for one churn
// batch — two sources added from a held-out pool, two removed — on the
// 600-source synth.GenerateLarge universe of the engine's
// BenchmarkDenseChurnRefresh: "patch" carries the pre-batch agenda
// through the batch (ExtendSeedPairs), "build" rebuilds it over the
// post-batch universe (BuildSeedPairs). Both produce the same agenda.
func BenchmarkSeedPairsChurn(b *testing.B) {
	lc := synth.DefaultLargeConfig(1000)
	lc.Concepts, lc.ZipfS = 96, 1.01
	all, _, err := synth.GenerateLarge(lc)
	if err != nil {
		b.Fatal(err)
	}
	before := &model.Universe{Sources: append([]model.Source(nil), all.Sources[:600]...)}
	// The batch removes sources 17 and 400 and appends two pool sources.
	after := &model.Universe{}
	remap := make([]int, 600)
	for i, s := range before.Sources {
		if i == 17 || i == 400 {
			remap[i] = -1
			continue
		}
		remap[i] = len(after.Sources)
		after.Sources = append(after.Sources, s)
	}
	after.Sources = append(after.Sources, all.Sources[600], all.Sources[601])
	sim := strsim.NewCache(nil)
	for _, u := range []*model.Universe{before, after} {
		for i := range u.Sources {
			for _, a := range u.Sources[i].Attributes {
				sim.Intern(a)
			}
		}
	}
	m := mustMatrix(sim)
	theta := 0.65
	nbrs := m.Neighbors(theta)
	prev := BuildSeedPairs(before, buildNameIDs(before, sim), nbrs, m, theta)
	ids := buildNameIDs(after, sim)
	b.Run("patch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := ExtendSeedPairs(prev, remap, after, ids, nbrs, m, theta); got.Len() == 0 {
				b.Fatal("empty agenda")
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := BuildSeedPairs(after, ids, nbrs, m, theta); got.Len() == 0 {
				b.Fatal("empty agenda")
			}
		}
	})
}

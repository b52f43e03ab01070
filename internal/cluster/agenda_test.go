package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/synth"
)

// randomSchemas draws n source schemas from the test vocabulary.
func randomSchemas(r *rand.Rand, n int) [][]string {
	vocab := []string{
		"title", "titles", "book title", "author", "authors", "writer",
		"isbn", "isbn number", "price", "price range", "keyword",
		"keywords", "publisher", "format", "year", "language",
	}
	var schemas [][]string
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(6)
		attrs := make([]string, 0, k)
		seen := map[string]bool{}
		for len(attrs) < k {
			a := vocab[r.Intn(len(vocab))]
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
		schemas = append(schemas, attrs)
	}
	return schemas
}

// buildNameIDs interns every attribute and returns the source→attr→ID map
// the engine precomputes in production.
func buildNameIDs(u *model.Universe, sim *strsim.Cache) [][]int {
	ids := make([][]int, len(u.Sources))
	for i := range u.Sources {
		ids[i] = make([]int, len(u.Sources[i].Attributes))
		for a, name := range u.Sources[i].Attributes {
			ids[i][a] = sim.Intern(name)
		}
	}
	return ids
}

// TestAgendaMatchesLegacy is the differential property test: over seeded
// random universes, with and without the matrix scorer / neighbors index /
// GA constraints / NameIDs precompute, the agenda Match must produce a
// Result byte-identical to the legacy sorted-slice path. The second pass
// scores with LevenshteinRatio through the Cache, a scorer that is not a
// strsim.Table and takes many distinct float64 values, so the agenda keys
// its pairs by rank (see rankSims) — with and without an adjacency index.
func TestAgendaMatchesLegacy(t *testing.T) {
	agendaDifferential(t, 20240807, nil)
	agendaDifferential(t, 17, strsim.LevenshteinRatio{})
}

// pairScores is a scorer over a fixed symmetric table of name-pair
// scores; unlisted pairs score 0 and a name scores 1 with itself.
type pairScores map[[2]int]float64

func (p pairScores) Score(a, b int) float64 {
	if a == b {
		return 1
	}
	return p[[2]int{min(a, b), max(a, b)}]
}

// TestAgendaRankKeysSplitNearTies pins the case float32 keys would get
// wrong: a scorer that is not a strsim.Table gives a's pairs with b and c
// distinct scores that round to one float32. b and c share a source, so
// only the better pair (a, c) may merge, although (a, b) comes first in
// ord order.
func TestAgendaRankKeysSplitNearTies(t *testing.T) {
	u := mkUniverse([]string{"a"}, []string{"b", "c"})
	sim := strsim.NewCache(nil)
	a, b, c := sim.Intern("a"), sim.Intern("b"), sim.Intern("c")
	scores := pairScores{{a, b}: 0.8 - 1e-12, {a, c}: 0.8}
	if float32(scores[[2]int{a, b}]) != float32(scores[[2]int{a, c}]) {
		t.Fatal("the two scores must round to one float32")
	}
	cfg := Config{Theta: 0.5, Beta: 2, Sim: sim, Scores: scores}
	legacy := cfg
	legacy.LegacyAgenda = true
	want := Match(u, allSources(u), nil, nil, legacy)
	got := Match(u, allSources(u), nil, nil, cfg)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("legacy %+v\nagenda %+v", want, got)
	}
	if ga := want.Schema.GAs; len(ga) != 1 || !ga[0].ContainsAll(model.NewGA(model.AttrRef{Source: 1, Attr: 1})) {
		t.Fatalf("want the one GA {a, c}, got %v", ga)
	}
}

// agendaDifferential runs 200 seeded trials of the agenda-vs-legacy
// differential with names scored by measure (nil: the Cache default).
func agendaDifferential(t *testing.T, seed int64, measure strsim.Measure) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// One scratch reused across many trials (when drawn): reuse must be
	// invisible — stale buffer contents must never leak into a Result.
	shared := &Scratch{}
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(12)
		u := mkUniverse(randomSchemas(r, n)...)

		var G []model.GA
		if r.Intn(2) == 0 {
			s1, s2 := r.Intn(n), r.Intn(n)
			if s1 != s2 {
				G = append(G, model.NewGA(
					model.AttrRef{Source: s1, Attr: r.Intn(len(u.Sources[s1].Attributes))},
					model.AttrRef{Source: s2, Attr: r.Intn(len(u.Sources[s2].Attributes))},
				))
			}
		}

		theta := 0.4 + r.Float64()*0.55
		beta := 2 + r.Intn(2)

		base := Config{Theta: theta, Beta: beta, Sim: strsim.NewCache(measure)}
		indexed := r.Intn(2) == 0
		seedIdx := false
		if indexed {
			for i := range u.Sources {
				for _, a := range u.Sources[i].Attributes {
					base.Sim.Intern(a)
				}
			}
			if measure != nil && r.Intn(2) == 0 {
				// Rank keys behind an adjacency index.
				base.Neighbors = exactNeighbors(base.Sim, theta)
			} else {
				m := mustMatrix(base.Sim)
				base.Scores = m
				base.Neighbors = m.Neighbors(theta)
				if r.Intn(2) == 0 {
					base.Seed = BuildSeedPairs(u, buildNameIDs(u, base.Sim), base.Neighbors, m, theta)
					seedIdx = base.Seed != nil
				}
			}
		}
		if r.Intn(2) == 0 {
			base.NameIDs = buildNameIDs(u, base.Sim)
		}
		if r.Intn(2) == 0 {
			base.Scratch = shared
		}

		// Sometimes run on a strict sorted subset of the sources (the
		// engine's usual call shape, and the one the SeedPairs gather
		// must filter correctly); G references full-universe sources,
		// so subsets only apply without constraints.
		S := allSources(u)
		if len(G) == 0 && n > 2 && r.Intn(3) == 0 {
			S = S[:0]
			for s := 0; s < n; s++ {
				if r.Intn(3) > 0 {
					S = append(S, s)
				}
			}
		}

		legacy := base
		legacy.LegacyAgenda = true
		want := Match(u, S, nil, G, legacy)

		agenda := base
		agenda.LegacyAgenda = false
		got := Match(u, S, nil, G, agenda)

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (n=%d θ=%.3f β=%d indexed=%v seedIdx=%v G=%v S=%v):\nlegacy: %+v\nagenda: %+v",
				trial, n, theta, beta, indexed, seedIdx, G, S, want, got)
		}
	}
}

// exactNeighbors lists, for every interned name, the names scoring ≥ θ
// under the cache itself: an adjacency index for a scorer that is not a
// strsim.Table.
func exactNeighbors(sim *strsim.Cache, theta float64) [][]int {
	out := make([][]int, sim.Len())
	for a := range out {
		for b := range out {
			if sim.Score(a, b) >= theta {
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}

// TestAgendaEntryOrder checks the packed entry layout: over random and
// extreme (key, ordA, ordB) triples — keys 0 and 2^30−1, ords at
// ±(nSeed−1) before the offset — unsigned order on packed entries must be
// lexicographic order on the triples, and an entry must decode to its
// ords.
func TestAgendaEntryOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	type triple struct {
		key  uint32
		a, b int32
	}
	for _, nSeed := range []int{2, 3, 127, 1000, MaxSlots - 1} {
		bias, span := int32(nSeed), int32(nSeed-1)
		var ts []triple
		add := func(key uint32, a, b int32) {
			if a > b {
				a, b = b, a
			}
			if a != b {
				ts = append(ts, triple{key, a + bias, b + bias})
			}
		}
		keys := []uint32{0, 1, 1<<keyBits - 2, 1<<keyBits - 1}
		ords := []int32{-span, min(-span+1, span), -1, 0, 1, max(span-1, -span), span}
		for _, k := range keys {
			for _, a := range ords {
				for _, b := range ords {
					add(k, a, b)
				}
			}
		}
		ord := func() int32 { return -span + int32(r.Intn(2*nSeed-1)) }
		for i := 0; i < 200; i++ {
			add(uint32(r.Intn(1<<keyBits)), ord(), ord())
			add(keys[r.Intn(len(keys))], ord(), ord()) // ties on the key
		}
		for _, x := range ts {
			px := pack(x.key, x.a, x.b)
			if a, b := unpack(px); a != x.a || b != x.b || uint32(px>>keyShift) != x.key {
				t.Fatalf("nSeed %d: %+v packs to %#x, which decodes to key %d, ords %d, %d", nSeed, x, px, px>>keyShift, a, b)
			}
			for _, y := range ts {
				want := x.key < y.key || x.key == y.key && (x.a < y.a || x.a == y.a && x.b < y.b)
				if got := px < pack(y.key, y.a, y.b); got != want {
					t.Fatalf("nSeed %d: packed %+v < %+v is %v, lexicographic order says %v", nSeed, x, y, got, want)
				}
			}
		}
	}
}

// TestAgendaMatchesLegacyWithSourceConstraints exercises the C-validity
// path (Match may return the NULL result) on both implementations.
func TestAgendaMatchesLegacyWithSourceConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(6)
		u := mkUniverse(randomSchemas(r, n)...)
		C := []int{r.Intn(n)}

		base := Config{Theta: 0.5 + r.Float64()*0.45, Beta: 2, Sim: strsim.NewCache(nil)}
		legacy := base
		legacy.LegacyAgenda = true
		want := Match(u, allSources(u), C, nil, legacy)
		got := Match(u, allSources(u), C, nil, base)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: legacy %+v vs agenda %+v", trial, want, got)
		}
	}
}

// BenchmarkMatchSynth measures Match on the synthetic BAMM universe the
// experiments use (N=200), on random m=50 subsets — the workload the
// solver's inner loop actually runs.
func BenchmarkMatchSynth(b *testing.B) {
	u, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		legacy  bool
		seedIdx bool
	}{{"legacy", true, false}, {"agenda", false, false}, {"agenda-seedidx", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Theta: 0.65, Beta: 2, Sim: strsim.NewCache(nil), LegacyAgenda: mode.legacy}
			for i := range u.Sources {
				for _, a := range u.Sources[i].Attributes {
					cfg.Sim.Intern(a)
				}
			}
			m := mustMatrix(cfg.Sim)
			cfg.Scores = m
			cfg.Neighbors = m.Neighbors(cfg.Theta)
			cfg.NameIDs = buildNameIDs(u, cfg.Sim)
			if mode.seedIdx {
				cfg.Seed = BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, m, cfg.Theta)
				if cfg.Seed == nil {
					b.Fatal("BuildSeedPairs returned nil")
				}
			}
			if !mode.legacy {
				cfg.Scratch = &Scratch{}
			}
			r := rand.New(rand.NewSource(7))
			subsets := make([][]int, 64)
			for i := range subsets {
				subsets[i] = r.Perm(u.N())[:50]
				slices.Sort(subsets[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Match(u, subsets[i%len(subsets)], nil, nil, cfg)
			}
		})
	}
}

func BenchmarkMatchAgenda(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	schemas := randomSchemas(r, 50)
	u := mkUniverse(schemas...)
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"legacy", true}, {"agenda", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := defaultCfg()
			cfg.LegacyAgenda = mode.legacy
			for i := range u.Sources {
				for _, a := range u.Sources[i].Attributes {
					cfg.Sim.Intern(a)
				}
			}
			m := mustMatrix(cfg.Sim)
			cfg.Scores = m
			cfg.Neighbors = m.Neighbors(cfg.Theta)
			cfg.NameIDs = buildNameIDs(u, cfg.Sim)
			S := allSources(u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Match(u, S, nil, nil, cfg)
			}
		})
	}
}

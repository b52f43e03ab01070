package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// seed agenda / GA constraints / NameIDs precompute, the agenda Match must
// produce a Result byte-identical to the Algorithm 1 transcription
// (algorithm1_test.go). The second pass scores with LevenshteinRatio
// through the Cache, a scorer that is not a strsim.Table and takes many
// distinct float64 values, so the agenda keys its pairs by rank (see
// rankSims) — with and without an adjacency index.
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
	want := algorithm1(u, allSources(u), nil, nil, cfg)
	got := Match(u, allSources(u), nil, nil, cfg)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("algorithm1 %+v\nagenda %+v", want, got)
	}
	if ga := want.Schema.GAs; len(ga) != 1 || !ga[0].ContainsAll(model.NewGA(model.AttrRef{Source: 1, Attr: 1})) {
		t.Fatalf("want the one GA {a, c}, got %v", ga)
	}
}

// agendaDifferential runs 200 seeded trials of the agenda-vs-algorithm1
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

		want := algorithm1(u, S, nil, G, base)
		got := Match(u, S, nil, G, base)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (n=%d θ=%.3f β=%d indexed=%v seedIdx=%v G=%v S=%v):\nalgorithm1: %+v\nagenda:     %+v",
				trial, n, theta, beta, indexed, seedIdx, G, S, want, got)
		}
	}
}

// FuzzAgendaMatchesOracle drives the agenda differential from fuzzer
// bytes: whole-set Match must equal the Algorithm 1 transcription bit for
// bit on a random universe and candidate set, with GA constraints and a
// source constraint when drawn. mode picks the configuration: bit 0 adds
// an adjacency index, bit 1 scores with LevenshteinRatio instead of the
// default n-gram measure, bit 2 scores through the Cache instead of a
// dense matrix (so the agenda keys pairs by rank), bit 3 adds the seed
// agenda (which applies with a matrix and no GA constraint) and bit 4
// the precomputed name IDs.
func FuzzAgendaMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(0), uint8(0))
	f.Add(int64(7), uint8(14), uint8(1), uint8(3), uint8(9))
	f.Add(int64(42), uint8(19), uint8(4), uint8(1), uint8(25))
	f.Add(int64(-3), uint8(2), uint8(0), uint8(2), uint8(7))
	f.Add(int64(11), uint8(12), uint8(2), uint8(1), uint8(5))
	f.Add(int64(5), uint8(17), uint8(1), uint8(0), uint8(6))
	f.Add(int64(23), uint8(9), uint8(3), uint8(2), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, size, thetaSel, betaSel, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%20
		u := mkUniverse(randomSchemas(r, n)...)
		var S []int
		for s := 0; s < n; s++ {
			if r.Intn(3) > 0 {
				S = append(S, s)
			}
		}
		if len(S) == 0 {
			S = []int{n - 1}
		}
		G := randomConstraints(r, u, S)
		var C []int
		if r.Intn(3) == 0 {
			C = []int{S[r.Intn(len(S))]}
		}
		var measure strsim.Measure
		if mode&2 != 0 {
			measure = strsim.LevenshteinRatio{}
		}
		cfg := Config{
			Theta: []float64{0.35, 0.5, 0.65, 0.8, 1}[int(thetaSel)%5],
			Beta:  1 + int(betaSel)%4,
			Sim:   strsim.NewCache(measure),
		}
		ids := buildNameIDs(u, cfg.Sim)
		if mode&4 == 0 {
			m := mustMatrix(cfg.Sim)
			cfg.Scores = m
			if mode&1 != 0 {
				cfg.Neighbors = m.Neighbors(cfg.Theta)
			}
			if mode&8 != 0 {
				cfg.Seed = BuildSeedPairs(u, ids, m.Neighbors(cfg.Theta), m, cfg.Theta)
			}
		} else if mode&1 != 0 {
			cfg.Neighbors = exactNeighbors(cfg.Sim, cfg.Theta)
		}
		if mode&16 != 0 {
			cfg.NameIDs = ids
		}
		want := algorithm1(u, S, C, G, cfg)
		if got := Match(u, S, C, G, cfg); !reflect.DeepEqual(want, got) {
			t.Fatalf("θ=%v β=%d S=%v C=%v G=%v mode=%b:\nalgorithm1: %+v\nagenda:     %+v", cfg.Theta, cfg.Beta, S, C, G, mode, want, got)
		}
	})
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

// FuzzSortRun is sortRun's differential against slices.Sort: runs of up
// to 2 000 entries over 1–6 distinct keys, duplicates included, arriving
// in walk order, bucket order (each key's entries sorted, keys
// interleaved, the shape the enumeration emits), shuffled or reversed,
// with a spare buffer of arbitrary length, capacity and contents. The
// result must be the sorted run, and the spare handed back empty and
// sharing no memory with it.
func FuzzSortRun(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(1), uint8(0), uint16(0))
	f.Add(int64(2), uint16(12), uint8(2), uint8(1), uint16(3))
	f.Add(int64(3), uint16(13), uint8(2), uint8(1), uint16(0))
	f.Add(int64(4), uint16(100), uint8(4), uint8(2), uint16(500))
	f.Add(int64(5), uint16(2000), uint8(5), uint8(3), uint16(40))
	f.Add(int64(6), uint16(700), uint8(6), uint8(1), uint16(2000))
	f.Add(int64(7), uint16(300), uint8(1), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, nKeys, shape uint8, spareCap uint16) {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 2001
		keys := make([]uint32, 1+int(nKeys)%6)
		for i := range keys {
			keys[i] = uint32(r.Intn(1 << keyBits))
		}
		span := int32(1 + r.Intn(ordMask-1))
		ord := func() int32 { return 1 + int32(r.Intn(int(span))) }
		q := make([]uint64, 0, n)
		for len(q) < n {
			if len(q) > 0 && r.Intn(8) == 0 {
				q = append(q, q[r.Intn(len(q))]) // a duplicate
				continue
			}
			a, b := ord(), ord()
			if a == b {
				continue
			}
			q = append(q, pack(keys[r.Intn(len(keys))], min(a, b), max(a, b)))
		}
		want := slices.Clone(q)
		slices.Sort(want)
		switch shape % 4 {
		case 0:
			copy(q, want)
		case 1:
			// Each key's entries in order, the keys interleaved at random.
			byKey := map[uint64][]uint64{}
			var order []uint64
			for _, e := range want {
				k := e >> keyShift
				if len(byKey[k]) == 0 {
					order = append(order, k)
				}
				byKey[k] = append(byKey[k], e)
			}
			q = q[:0]
			for len(q) < n {
				k := order[r.Intn(len(order))]
				if len(byKey[k]) > 0 {
					q = append(q, byKey[k][0])
					byKey[k] = byKey[k][1:]
				}
			}
		case 2:
			r.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		case 3:
			copy(q, want)
			slices.Reverse(q)
		}
		spare := make([]uint64, r.Intn(int(spareCap)+1), int(spareCap)+1)
		for i := range spare {
			spare[i] = r.Uint64()
		}
		run, rest := sortRun(q, spare)
		if !slices.Equal(run, want) {
			t.Fatalf("sortRun of %d entries over %d keys (shape %d) differs from slices.Sort", n, len(keys), shape%4)
		}
		if len(rest) != 0 {
			t.Fatalf("spare handed back with %d entries", len(rest))
		}
		// Overwriting all of the spare must leave the run intact.
		rest = rest[:cap(rest)]
		for i := range rest {
			rest[i] = ^uint64(0)
		}
		if !slices.Equal(run, want) {
			t.Fatal("the spare handed back shares memory with the sorted run")
		}
	})
}

// TestAgendaMatchesLegacyWithSourceConstraints exercises the C-validity
// path (Match may return the NULL result) against the Algorithm 1
// transcription.
func TestAgendaMatchesLegacyWithSourceConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(6)
		u := mkUniverse(randomSchemas(r, n)...)
		C := []int{r.Intn(n)}

		base := Config{Theta: 0.5 + r.Float64()*0.45, Beta: 2, Sim: strsim.NewCache(nil)}
		want := algorithm1(u, allSources(u), C, nil, base)
		got := Match(u, allSources(u), C, nil, base)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: algorithm1 %+v vs agenda %+v", trial, want, got)
		}
	}
}

// synthBench returns the synthetic BAMM universe the experiments use
// (N=200), a configuration scoring it through a dense matrix with a θ
// adjacency index and precomputed name IDs, and 64 random m=50 subsets —
// the candidate sets the solver's inner loop evaluates. paired gives every
// source the plural of its first attribute as well (see pairUp).
func synthBench(b *testing.B, paired bool) (*model.Universe, Config, [][]int) {
	u, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if paired {
		pairUp(u)
	}
	cfg := Config{Theta: 0.65, Beta: 2, Sim: strsim.NewCache(nil)}
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			cfg.Sim.Intern(a)
		}
	}
	m := mustMatrix(cfg.Sim)
	cfg.Scores = m
	cfg.Neighbors = m.Neighbors(cfg.Theta)
	cfg.NameIDs = buildNameIDs(u, cfg.Sim)
	r := rand.New(rand.NewSource(7))
	subsets := make([][]int, 64)
	for i := range subsets {
		subsets[i] = r.Perm(u.N())[:50]
		slices.Sort(subsets[i])
	}
	return u, cfg, subsets
}

// pairUp appends to every source the plural of its first attribute,
// which the n-gram measure scores at least 0.66 against it: the source
// then has two slots in one θ-component, which Split cannot decide in
// closed form.
func pairUp(u *model.Universe) {
	for i := range u.Sources {
		if a := u.Sources[i].Attributes; !slices.Contains(a, a[0]+"s") {
			u.Sources[i].Attributes = append(a, a[0]+"s")
		}
	}
}

// BenchmarkMatchSynth measures Match on synthBench's subsets: whole-set
// Match on the agenda, with and without the seed agenda, and the path a
// solve runs, Split then Components.Match and F1, with no memo. On the
// synthetic universe every component is source-disjoint and decided in
// closed form; the paired variants run it on the paired universe, where
// most components repeat a source, without a memo and with one reusing
// Parts by key across subsets the way a solve's memo does.
func BenchmarkMatchSynth(b *testing.B) {
	for _, mode := range []string{"agenda", "agenda-seedidx", "components", "components-paired", "components-paired-memo"} {
		b.Run(mode, func(b *testing.B) {
			u, cfg, subsets := synthBench(b, strings.HasPrefix(mode, "components-paired"))
			cfg.Scratch = &Scratch{}
			if mode == "agenda-seedidx" {
				cfg.Seed = BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, cfg.Scores, cfg.Theta)
				if cfg.Seed == nil {
					b.Fatal("BuildSeedPairs returned nil")
				}
			}
			memo := map[string]*Part{}
			var idx []int
			for i := 0; b.Loop(); i++ {
				S := subsets[i%len(subsets)]
				if strings.HasPrefix(mode, "agenda") {
					Match(u, S, nil, nil, cfg)
					continue
				}
				cs := Split(u, S, nil, cfg)
				idx = idx[:0]
				for k := range cs.Len() {
					if p, ok := memo[string(cs.Key(k))]; ok {
						cs.Set(k, p)
					} else {
						idx = append(idx, k)
					}
				}
				cs.Match(idx)
				if mode == "components-paired-memo" {
					for _, k := range idx {
						memo[string(cs.Key(k))] = cs.Part(k)
					}
				}
				cs.F1(nil)
			}
			if len(memo) > 0 {
				b.ReportMetric(float64(len(memo)), "memo-keys")
			}
		})
	}
}

// BenchmarkMatchAgenda measures whole-set Match over 50 random schemas
// through a dense matrix and its θ adjacency index.
func BenchmarkMatchAgenda(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	u := mkUniverse(randomSchemas(r, 50)...)
	cfg := defaultCfg()
	cfg.NameIDs = buildNameIDs(u, cfg.Sim)
	m := mustMatrix(cfg.Sim)
	cfg.Scores = m
	cfg.Neighbors = m.Neighbors(cfg.Theta)
	S := allSources(u)
	for b.Loop() {
		Match(u, S, nil, nil, cfg)
	}
}

package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
)

// componentCase is one differential input: a universe, a candidate set
// with its constraints, and the clustering parameters.
type componentCase struct {
	u     *model.Universe
	S, C  []int
	G     []model.GA
	theta float64
	beta  int
}

// componentResult evaluates Match(S) through the component path. memo,
// when non-nil, carries Parts across calls by key, the way the engine's
// per-solve memo does; it must only be shared between calls with the same
// universe and parameters.
func componentResult(c componentCase, cfg Config, memo map[string]*Part) (Result, float64, bool) {
	cs := Split(c.u, c.S, c.G, cfg)
	var missing []int
	for i := 0; i < cs.Len(); i++ {
		if p, ok := memo[string(cs.Key(i))]; ok {
			cs.Set(i, p)
			continue
		}
		missing = append(missing, i)
	}
	cs.Match(missing)
	for _, i := range missing {
		if memo != nil {
			memo[string(cs.Key(i))] = cs.Part(i)
		}
	}
	q, valid := cs.F1(c.C)
	return cs.Result(c.C), q, valid
}

// randomCase draws a universe over the near-duplicate test vocabulary and
// a candidate set of it, sometimes with GA constraints and source
// constraints (which often make the set invalid on C).
func randomCase(r *rand.Rand) componentCase {
	n := 2 + r.Intn(18)
	c := componentCase{
		u:     mkUniverse(randomSchemas(r, n)...),
		theta: []float64{0.4, 0.5, 0.65, 0.8, 0.95}[r.Intn(5)],
		beta:  2 + r.Intn(3),
	}
	for s := 0; s < n; s++ {
		if r.Intn(4) > 0 {
			c.S = append(c.S, s)
		}
	}
	if len(c.S) == 0 {
		c.S = []int{r.Intn(n)}
	}
	c.G = randomConstraints(r, c.u, c.S)
	for _, s := range c.S {
		if r.Intn(8) == 0 {
			c.C = append(c.C, s)
		}
	}
	return c
}

// randomConstraints draws up to two disjoint GA constraints over sources
// of S, each taking one attribute from two or three distinct sources.
func randomConstraints(r *rand.Rand, u *model.Universe, S []int) []model.GA {
	var G []model.GA
	used := map[model.AttrRef]bool{}
	for k := r.Intn(3); k > 0 && len(S) >= 2; k-- {
		var refs []model.AttrRef
		srcs := r.Perm(len(S))[:min(len(S), 2+r.Intn(2))]
		for _, i := range srcs {
			s := S[i]
			ref := model.AttrRef{Source: s, Attr: r.Intn(len(u.Sources[s].Attributes))}
			if used[ref] {
				refs = nil
				break
			}
			refs = append(refs, ref)
		}
		if refs == nil {
			continue
		}
		for _, ref := range refs {
			used[ref] = true
		}
		G = append(G, model.NewGA(refs...))
	}
	return G
}

// caseConfigs returns the component path's configuration (dense matrix,
// θ adjacency, precomputed name IDs, a shared scratch) and the oracle's:
// whole-set Match on the legacy agenda over the same scores.
func caseConfigs(c componentCase, sc *Scratch, indexed bool, measure strsim.Measure) (cfg, oracle Config) {
	sim := strsim.NewCache(measure)
	ids := buildNameIDs(c.u, sim)
	cfg = Config{Theta: c.theta, Beta: c.beta, Sim: sim, Scratch: sc}
	if indexed {
		m := mustMatrix(sim)
		cfg.Scores = m
		cfg.Neighbors = m.Neighbors(c.theta)
		cfg.NameIDs = ids
	}
	oracle = Config{Theta: c.theta, Beta: c.beta, Sim: sim, Scores: cfg.Scores, LegacyAgenda: true}
	return cfg, oracle
}

// checkComponentCase fails unless the component path reproduces the
// oracle bit for bit: the same Result, and F1 equal to its Quality and
// Valid.
func checkComponentCase(t *testing.T, where string, c componentCase, cfg, oracle Config, memo map[string]*Part) {
	t.Helper()
	want := Match(c.u, c.S, c.C, c.G, oracle)
	got, q, valid := componentResult(c, cfg, memo)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (θ=%v β=%d S=%v C=%v G=%v):\ncomponents: %+v\nwhole set:  %+v", where, c.theta, c.beta, c.S, c.C, c.G, got, want)
	}
	if math.Float64bits(q) != math.Float64bits(want.Quality) || valid != want.Valid {
		t.Fatalf("%s: F1 = (%v, %v), whole-set Match (%v, %v)", where, q, valid, want.Quality, want.Valid)
	}
}

// TestComponentsMatchWholeSet is the decomposition differential: on
// random universes, with GA constraints, source constraints (valid and
// invalid sets), β above 2 and several θ, composing per-component runs
// must give exactly whole-set Match on the legacy agenda — with and
// without the adjacency index (without it the set is one component).
func TestComponentsMatchWholeSet(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	sc := &Scratch{}
	var withG, invalid, multi int
	for trial := 0; trial < 600; trial++ {
		c := randomCase(r)
		cfg, oracle := caseConfigs(c, sc, trial%4 != 0, nil)
		checkComponentCase(t, "trial "+strconv.Itoa(trial), c, cfg, oracle, nil)
		if len(c.G) > 0 {
			withG++
		}
		if !Match(c.u, c.S, c.C, c.G, oracle).Valid {
			invalid++
		}
		if Split(c.u, c.S, c.G, cfg).Len() > 1 {
			multi++
		}
	}
	if withG == 0 || invalid == 0 || multi == 0 {
		t.Fatalf("coverage: %d cases with GA constraints, %d invalid on C, %d with several components", withG, invalid, multi)
	}
}

// TestComponentsMatchBelowThetaIndex is the decomposition differential
// with an adjacency index built 0.15 below the run's θ, which
// Config.Neighbors allows: a neighbor name scoring under θ must not pair
// two single-name clusters, and GA keep clusters carrying two or more
// names must still pair through every name. Composing the components
// must give exactly whole-set Match on the legacy agenda.
func TestComponentsMatchBelowThetaIndex(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	sc := &Scratch{}
	var multiName, below int
	for trial := 0; trial < 400; trial++ {
		c := randomCase(r)
		for try := 0; len(c.G) == 0 && len(c.S) >= 2 && try < 4; try++ {
			c.G = randomConstraints(r, c.u, c.S)
		}
		cfg, oracle := caseConfigs(c, sc, true, nil)
		m := cfg.Scores.(*strsim.Matrix)
		cfg.Neighbors = m.Neighbors(c.theta - 0.15)
		checkComponentCase(t, "trial "+strconv.Itoa(trial), c, cfg, oracle, nil)
		for _, g := range c.G {
			names := map[int]bool{}
			for _, ref := range g {
				names[cfg.NameIDs[ref.Source][ref.Attr]] = true
			}
			if len(names) >= 2 {
				multiName++
			}
		}
		for a, nbrs := range cfg.Neighbors {
			for _, b := range nbrs {
				if m.Score(a, b) < c.theta {
					below++
				}
			}
		}
	}
	if multiName == 0 || below == 0 {
		t.Fatalf("coverage: %d GA constraints with several names, %d index links below θ", multiName, below)
	}
}

// TestComponentMemoIsExact reuses Parts by key across a walk of
// neighboring candidate sets on one universe — the tabu shape, where most
// components repeat — and requires every composed Result to equal
// whole-set Match. A key that named two different components would hand
// one set another set's Part.
func TestComponentMemoIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for walk := 0; walk < 40; walk++ {
		c := randomCase(r)
		n := c.u.N()
		cfg, oracle := caseConfigs(c, &Scratch{}, true, nil)
		memo := map[string]*Part{}
		req := model.NewSourceSet(n)
		for _, g := range c.G {
			for _, ref := range g {
				req.Add(ref.Source)
			}
		}
		for _, s := range c.C {
			req.Add(s)
		}
		cur := model.NewSourceSetOf(n, c.S...)
		for step := 0; step < 30; step++ {
			// Swap, add or drop one source, never a required one.
			next := cur.Clone()
			if in := r.Intn(n); r.Intn(3) > 0 {
				next.Add(in)
			}
			if out := r.Intn(n); r.Intn(3) > 0 && !req.Has(out) && next.Len() > 1 {
				next.Remove(out)
			}
			cur = next
			c.S = cur.Elements()
			checkComponentCase(t, "walk "+strconv.Itoa(walk)+" step "+strconv.Itoa(step), c, cfg, oracle, memo)
		}
	}
}

// FuzzMatchComponents drives the decomposition differential from fuzzer
// bytes: the bytes pick the universe, the candidate set, constraints and
// parameters, and a second set one move away that shares most of the
// first one's components. Composing the components — the second set
// reusing the first set's Parts by key — must equal whole-set Match on
// the legacy agenda for both sets. mode picks the scorer: bit 0 drops the
// dense matrix and adjacency index (the whole set is one component,
// scored through the Cache, so the agenda keys pairs by rank), bit 1
// scores with LevenshteinRatio instead of the default n-gram measure.
func FuzzMatchComponents(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(0), uint8(0))
	f.Add(int64(7), uint8(14), uint8(1), uint8(3), uint8(0))
	f.Add(int64(42), uint8(19), uint8(4), uint8(1), uint8(0))
	f.Add(int64(-3), uint8(2), uint8(0), uint8(2), uint8(0))
	f.Add(int64(11), uint8(12), uint8(2), uint8(1), uint8(1))
	f.Add(int64(5), uint8(17), uint8(1), uint8(0), uint8(2))
	f.Add(int64(23), uint8(9), uint8(3), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, thetaSel, betaSel, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%20
		c := componentCase{
			u:     mkUniverse(randomSchemas(r, n)...),
			theta: []float64{0.35, 0.5, 0.65, 0.8, 1}[int(thetaSel)%5],
			beta:  1 + int(betaSel)%4,
		}
		for s := 0; s < n; s++ {
			if r.Intn(3) > 0 {
				c.S = append(c.S, s)
			}
		}
		if len(c.S) == 0 {
			c.S = []int{n - 1}
		}
		c.G = randomConstraints(r, c.u, c.S)
		if r.Intn(3) == 0 {
			c.C = []int{c.S[r.Intn(len(c.S))]}
		}
		var measure strsim.Measure
		if mode&2 != 0 {
			measure = strsim.LevenshteinRatio{}
		}
		cfg, oracle := caseConfigs(c, &Scratch{}, mode&1 == 0, measure)
		memo := map[string]*Part{}
		checkComponentCase(t, "first set", c, cfg, oracle, memo)

		// The neighbor: one more source and, unless pinned, one fewer.
		set := model.NewSourceSetOf(n, c.S...)
		set.Add(r.Intn(n))
		if out := c.S[r.Intn(len(c.S))]; len(c.G) == 0 && len(c.C) == 0 && set.Len() > 1 {
			set.Remove(out)
		}
		c.S = set.Elements()
		checkComponentCase(t, "neighbor set", c, cfg, oracle, memo)
	})
}

// BenchmarkComponentsMatch measures the path a solve runs for F1: Split
// of one of synthBench's subsets, then Components.Match over every
// component it keeps, with no memo.
func BenchmarkComponentsMatch(b *testing.B) {
	u, cfg, subsets := synthBench(b)
	cfg.Scratch = &Scratch{}
	var idx []int
	for i := 0; b.Loop(); i++ {
		cs := Split(u, subsets[i%len(subsets)], nil, cfg)
		idx = idx[:0]
		for k := range cs.Len() {
			idx = append(idx, k)
		}
		cs.Match(idx)
	}
}

package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// componentResult evaluates Match(S) through the component path, reusing
// Parts by key the way the engine's per-solve memo does: a component
// whose key is already in memo takes that Part, so components of one
// shape share the first one's. memo, when non-nil, carries Parts across
// calls; it must only be shared between calls with the same universe and
// parameters. It also reports how many components took a memoized Part.
func componentResult(c componentCase, cfg Config, memo map[string]*Part) (Result, float64, bool, int) {
	if memo == nil {
		memo = map[string]*Part{}
	}
	cs := Split(c.u, c.S, c.G, cfg)
	hits := 0
	for i := 0; i < cs.Len(); i++ {
		if p, ok := memo[string(cs.Key(i))]; ok {
			cs.Set(i, p)
			hits++
			continue
		}
		cs.Match([]int{i})
		memo[string(cs.Key(i))] = cs.Part(i)
	}
	q, valid := cs.F1(c.C)
	return cs.Result(c.C), q, valid, hits
}

// randomCase draws a universe over the near-duplicate test vocabulary and
// a candidate set of it, sometimes with GA constraints and source
// constraints (which often make the set invalid on C).
func randomCase(r *rand.Rand) componentCase { return drawCase(r, randomSchemas) }

// drawCase is randomCase over the schemas drawn by schemas.
func drawCase(r *rand.Rand, schemas func(*rand.Rand, int) [][]string) componentCase {
	n := 2 + r.Intn(18)
	c := componentCase{
		u:     mkUniverse(schemas(r, n)...),
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

// familySchemas draws n source schemas that each take one name from one
// to four families of near-duplicate names, so that no source holds two
// names of a family and most θ-components are source-disjoint, with
// names repeated across sources.
func familySchemas(r *rand.Rand, n int) [][]string {
	families := [][]string{
		{"title", "titles", "book title"}, {"author", "authors", "writer"}, {"isbn", "isbn number"},
		{"price", "price range"}, {"keyword", "keywords"}, {"publisher"}, {"format"}, {"year"},
	}
	schemas := make([][]string, n)
	for i := range schemas {
		for _, f := range r.Perm(len(families))[:1+r.Intn(4)] {
			schemas[i] = append(schemas[i], families[f][r.Intn(len(families[f]))])
		}
	}
	return schemas
}

// sameNameConstraints draws two GA constraints over four slots of S that
// share one name, so both fall in one component, or none when no name
// has four slots.
func sameNameConstraints(r *rand.Rand, u *model.Universe, S []int) []model.GA {
	byName := map[string][]model.AttrRef{}
	var fit []string
	for _, s := range S {
		for a, name := range u.Sources[s].Attributes {
			if byName[name] = append(byName[name], model.AttrRef{Source: s, Attr: a}); len(byName[name]) == 4 {
				fit = append(fit, name)
			}
		}
	}
	if len(fit) == 0 {
		return nil
	}
	refs := byName[fit[r.Intn(len(fit))]]
	at := r.Perm(len(refs))
	return []model.GA{model.NewGA(refs[at[0]], refs[at[1]]), model.NewGA(refs[at[2]], refs[at[3]])}
}

// pairedSchemas draws n source schemas that each hold a name and its
// plural, scoring 0.8 under the n-gram measure, for one to three stems:
// a source then has two slots in each component it touches, and
// components of one shape repeat within a set.
func pairedSchemas(r *rand.Rand, n int) [][]string {
	stems := []string{"author", "format", "seller", "edition"}
	schemas := make([][]string, n)
	for i := range schemas {
		for _, j := range r.Perm(len(stems))[:1+r.Intn(3)] {
			schemas[i] = append(schemas[i], stems[j], stems[j]+"s")
		}
	}
	return schemas
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

// caseConfig returns the component path's configuration: a shared
// scratch and, when indexed, a dense matrix, its θ adjacency and
// precomputed name IDs. The reference, algorithm1, reads only its θ, β,
// Sim and Scores.
func caseConfig(c componentCase, sc *Scratch, indexed bool, measure strsim.Measure) Config {
	sim := strsim.NewCache(measure)
	ids := buildNameIDs(c.u, sim)
	cfg := Config{Theta: c.theta, Beta: c.beta, Sim: sim, Scratch: sc}
	if indexed {
		m := mustMatrix(sim)
		cfg.Scores = m
		cfg.Neighbors = m.Neighbors(c.theta)
		cfg.NameIDs = ids
	}
	return cfg
}

// checkComponentCase fails unless the component path reproduces want bit
// for bit: the same Result, and F1 equal to its Quality and Valid; and
// unless every component decided in closed form has the Part a fresh
// agenda run gives it. It returns the number of memoized Parts the path
// took and the number of closed-form components.
func checkComponentCase(t *testing.T, where string, c componentCase, cfg Config, want Result, memo map[string]*Part) (hits, closed int) {
	t.Helper()
	cs := Split(c.u, c.S, c.G, cfg)
	if cfg.Neighbors == nil && cs.Closed() > 0 {
		t.Fatalf("%s: %d components decided in closed form without an index", where, cs.Closed())
	}
	for k := cs.Len(); k < cs.Len()+cs.Closed(); k++ {
		if p, q, same := cs.audit(k); !same {
			t.Fatalf("%s (θ=%v β=%d S=%v G=%v): closed-form component %d:\nclosed form: %+v\nagenda:      %+v", where, c.theta, c.beta, c.S, c.G, k, p, q)
		}
	}
	closed = cs.Closed()
	got, q, valid, hits := componentResult(c, cfg, memo)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (θ=%v β=%d S=%v C=%v G=%v):\ncomponents: %+v\nreference:  %+v", where, c.theta, c.beta, c.S, c.C, c.G, got, want)
	}
	if math.Float64bits(q) != math.Float64bits(want.Quality) || valid != want.Valid {
		t.Fatalf("%s: F1 = (%v, %v), reference (%v, %v)", where, q, valid, want.Quality, want.Valid)
	}
	return hits, closed
}

// checkAgainstAlgorithm1 is checkComponentCase against the Algorithm 1
// transcription.
func checkAgainstAlgorithm1(t *testing.T, where string, c componentCase, cfg Config, memo map[string]*Part) (hits, closed int) {
	t.Helper()
	return checkComponentCase(t, where, c, cfg, algorithm1(c.u, c.S, c.C, c.G, cfg), memo)
}

// TestComponentsMatchWholeSet is the decomposition differential: on
// random universes, with GA constraints, source constraints (valid and
// invalid sets), β above 2 and several θ, composing per-component runs,
// with components of one shape sharing a Part and source-disjoint ones
// decided in closed form, must give exactly the Algorithm 1 transcription
// — with and without the adjacency index (without it the set is one
// component). Only components where a source repeats reach the memo, so
// Parts are shared on universes of paired names (pairedSchemas).
func TestComponentsMatchWholeSet(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	sc := &Scratch{}
	var withG, invalid, multi, shared, closed int
	for trial := 0; trial < 600; trial++ {
		c := randomCase(r)
		cfg := caseConfig(c, sc, trial%4 != 0, nil)
		hits, k := checkAgainstAlgorithm1(t, "trial "+strconv.Itoa(trial), c, cfg, nil)
		shared, closed = shared+hits, closed+k
		if len(c.G) > 0 {
			withG++
		}
		if !algorithm1(c.u, c.S, c.C, c.G, cfg).Valid {
			invalid++
		}
		if cs := Split(c.u, c.S, c.G, cfg); cs.Len()+cs.Closed() > 1 {
			multi++
		}
	}
	paired := rand.New(rand.NewSource(20261020))
	for trial := 0; trial < 200; trial++ {
		c := drawCase(paired, pairedSchemas)
		hits, _ := checkAgainstAlgorithm1(t, "paired trial "+strconv.Itoa(trial), c, caseConfig(c, sc, true, nil), nil)
		shared += hits
	}
	if withG == 0 || invalid == 0 || multi == 0 || shared == 0 || closed == 0 {
		t.Fatalf("coverage: %d cases with GA constraints, %d invalid on C, %d with several components, %d shared Parts, %d closed-form components",
			withG, invalid, multi, shared, closed)
	}
}

// TestClosedFormParts is the closed form's differential. On universes
// whose sources take at most one name of each family (familySchemas), so
// that most components are source-disjoint, every component Split decides
// in closed form must have the Part a fresh agenda run gives it, and the
// composed set the Algorithm 1 transcription's Result. The trials cover
// β 2–4, closed-form components with no, one and two GA constraints and
// with names repeated across sources, an index at θ and one built 0.15
// below it, both measures, and no index, where nothing is decided in
// closed form.
func TestClosedFormParts(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	sc := &Scratch{}
	var byGAs [3]int
	var byBeta [5]int
	var repeated, below, unindexed int
	for trial := 0; trial < 600; trial++ {
		c := drawCase(r, familySchemas)
		if trial%4 == 0 {
			c.G = sameNameConstraints(r, c.u, c.S)
		}
		for try := 0; trial%4 == 2 && len(c.G) < 2 && len(c.S) >= 2 && try < 4; try++ {
			c.G = randomConstraints(r, c.u, c.S)
		}
		var measure strsim.Measure
		if trial%5 == 0 {
			measure = strsim.LevenshteinRatio{}
		}
		cfg := caseConfig(c, sc, trial%3 != 2, measure)
		if trial%3 == 1 {
			cfg.Neighbors = cfg.Scores.(*strsim.Matrix).Neighbors(c.theta - 0.15)
		}
		if _, closed := checkAgainstAlgorithm1(t, "trial "+strconv.Itoa(trial), c, cfg, nil); cfg.Neighbors == nil {
			unindexed++
			continue
		} else if trial%3 == 1 {
			below += closed
		}
		cs := Split(c.u, c.S, c.G, cfg)
		for k := cs.Len(); k < cs.Len()+cs.Closed(); k++ {
			nG, names := 0, map[int32]bool{}
			for _, gk := range cs.gComp {
				if int(gk) == k {
					nG++
				}
			}
			n := cs.comps[k].hi - cs.comps[k].lo
			for pos := range n {
				names[cs.slot(k, pos).name] = true
			}
			byGAs[min(nG, 2)]++
			byBeta[c.beta]++
			if len(names) < int(n) {
				repeated++
			}
		}
	}
	if slices.Contains(byGAs[:], 0) || slices.Contains(byBeta[2:], 0) || repeated == 0 || below == 0 || unindexed == 0 {
		t.Fatalf("coverage: closed-form components with 0/1/2 GA constraints %v, by β %v, %d with a repeated name, %d under a below-θ index; %d cases without an index",
			byGAs, byBeta[2:], repeated, below, unindexed)
	}
}

// TestComponentsMatchBelowThetaIndex is the decomposition differential
// with an adjacency index built 0.15 below the run's θ, which
// Config.Neighbors allows: a neighbor name scoring under θ must not pair
// two single-name clusters, and GA keep clusters carrying two or more
// names must still pair through every name. Composing the components
// must give exactly the Algorithm 1 transcription.
func TestComponentsMatchBelowThetaIndex(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	sc := &Scratch{}
	var multiName, below int
	for trial := 0; trial < 400; trial++ {
		c := randomCase(r)
		for try := 0; len(c.G) == 0 && len(c.S) >= 2 && try < 4; try++ {
			c.G = randomConstraints(r, c.u, c.S)
		}
		cfg := caseConfig(c, sc, true, nil)
		m := cfg.Scores.(*strsim.Matrix)
		cfg.Neighbors = m.Neighbors(c.theta - 0.15)
		checkAgainstAlgorithm1(t, "trial "+strconv.Itoa(trial), c, cfg, nil)
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
// whole-set Match. A key that named two components Algorithm 1 can tell
// apart would hand one set another set's Part.
func TestComponentMemoIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for walk := 0; walk < 40; walk++ {
		c := randomCase(r)
		n := c.u.N()
		cfg := caseConfig(c, &Scratch{}, true, nil)
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
			checkAgainstAlgorithm1(t, "walk "+strconv.Itoa(walk)+" step "+strconv.Itoa(step), c, cfg, memo)
		}
	}
}

// FuzzMatchComponents drives the decomposition differential from fuzzer
// bytes: the bytes pick the universe, the candidate set, constraints and
// parameters, and a second set one move away that shares most of the
// first one's components. Composing the components — the second set
// reusing the first set's Parts by key — must equal the Algorithm 1
// transcription for both sets, and every component decided in closed
// form must have a fresh agenda run's Part. mode picks the inputs: bit 0
// drops the dense matrix and adjacency index (the whole set is one
// component, scored through the Cache, so the agenda keys pairs by rank),
// bit 1 scores with LevenshteinRatio instead of the default n-gram
// measure, bit 2 builds the index 0.15 below θ, and bit 3 draws the
// schemas from name families (familySchemas), where most components are
// source-disjoint and decided in closed form.
func FuzzMatchComponents(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(0), uint8(0))
	f.Add(int64(7), uint8(14), uint8(1), uint8(3), uint8(0))
	f.Add(int64(42), uint8(19), uint8(4), uint8(1), uint8(0))
	f.Add(int64(-3), uint8(2), uint8(0), uint8(2), uint8(0))
	f.Add(int64(11), uint8(12), uint8(2), uint8(1), uint8(1))
	f.Add(int64(5), uint8(17), uint8(1), uint8(0), uint8(2))
	f.Add(int64(23), uint8(9), uint8(3), uint8(2), uint8(3))
	f.Add(int64(3), uint8(15), uint8(2), uint8(1), uint8(8))
	f.Add(int64(8), uint8(18), uint8(0), uint8(3), uint8(12))
	f.Add(int64(13), uint8(11), uint8(2), uint8(2), uint8(14))
	f.Add(int64(29), uint8(16), uint8(3), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, size, thetaSel, betaSel, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%20
		schemas := randomSchemas
		if mode&8 != 0 {
			schemas = familySchemas
		}
		c := componentCase{
			u:     mkUniverse(schemas(r, n)...),
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
		cfg := caseConfig(c, &Scratch{}, mode&1 == 0, measure)
		if mode&5 == 4 {
			cfg.Neighbors = cfg.Scores.(*strsim.Matrix).Neighbors(c.theta - 0.15)
		}
		memo := map[string]*Part{}
		checkAgainstAlgorithm1(t, "first set", c, cfg, memo)

		// The neighbor: one more source and, unless pinned, one fewer.
		set := model.NewSourceSetOf(n, c.S...)
		set.Add(r.Intn(n))
		if out := c.S[r.Intn(len(c.S))]; len(c.G) == 0 && len(c.C) == 0 && set.Len() > 1 {
			set.Remove(out)
		}
		c.S = set.Elements()
		checkAgainstAlgorithm1(t, "neighbor set", c, cfg, memo)
	})
}

// labelMeasure scores names through per-family label-pair tables: a name
// is a family letter and a number, labels maps each name to its label,
// and names of different families score 0.
type labelMeasure struct {
	tabs   map[byte][][]float64
	labels map[string]int
}

func (labelMeasure) Name() string { return "label-table" }

func (m labelMeasure) Score(a, b string) float64 {
	if a[0] != b[0] {
		return 0
	}
	return m.tabs[a[0]][m.labels[a]][m.labels[b]]
}

// TestShapeKeyAdjacency pins the adjacency bits of the shape key on the
// smallest case where they matter. Names a, b and c score 0.9 (a, b) and
// 0.5 (a, c), (b, c) at θ = 0.4; slot A carries a in one source, slots B
// and C carry b and c in another. When the index lists (a, b), A merges
// with B; when it leaves (a, b) out, as a lossy index can, A pairs only with C
// and merges with it, and B cannot join. The two components have equal
// scores and must still get different keys, and reusing Parts by key
// across them must reproduce whole-set Match over the same index on each
// (the Algorithm 1 transcription ignores the index, so it cannot be the
// reference here).
func TestShapeKeyAdjacency(t *testing.T) {
	tab := [][]float64{{1, 0.9, 0.5}, {0.9, 1, 0.5}, {0.5, 0.5, 1}}
	m := labelMeasure{tabs: map[byte][][]float64{'p': tab, 'q': tab}, labels: map[string]int{}}
	sim := strsim.NewCache(m)
	for _, fam := range []string{"p", "q"} {
		for l := range 3 {
			m.labels[fam+strconv.Itoa(l)] = l
			sim.Intern(fam + strconv.Itoa(l))
		}
	}
	u := mkUniverse([]string{"p0"}, []string{"p1", "p2"}, []string{"q0"}, []string{"q1", "q2"})
	nbrs := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3, 5}, {4, 5}, {3, 4, 5}} // (q0, q1) left out
	cfg := Config{Theta: 0.4, Beta: 2, Sim: sim, Scores: mustMatrix(sim), Neighbors: nbrs, Scratch: &Scratch{}}
	whole := cfg
	whole.Scratch = nil
	memo := map[string]*Part{}
	var keys []string
	for _, S := range [][]int{{0, 1}, {2, 3}} {
		c := componentCase{u: u, S: S, theta: cfg.Theta, beta: cfg.Beta}
		checkComponentCase(t, "S="+strconv.Itoa(S[0]), c, cfg, Match(u, S, nil, nil, whole), memo)
		keys = append(keys, string(Split(u, S, nil, cfg).Key(0)))
	}
	if keys[0] == keys[1] {
		t.Fatalf("components that differ only in an index link share the key %x", keys[0])
	}
	if len(memo) != 2 || reflect.DeepEqual(memo[keys[0]], memo[keys[1]]) {
		t.Fatalf("the two components should cluster differently, got Parts %+v", memo)
	}
}

// FuzzShapeIsomorphism checks the shape key's claim: equal keys mean
// bit-equal Parts. The bytes draw up to eight names (family p) with a
// table of scores from a small set, so that ties are common, and an
// adjacency index that disagrees with the scores on about a fifth of the
// name pairs: it misses pairs scoring ≥ θ, as a lossy index can, and
// lists pairs under θ, as an index built at a lower θ does. The copy
// renames every name through a random permutation (family q, interned
// after p in another order, so name IDs compare differently) with the
// scores and adjacency carried over, and moves the sources to other IDs in
// the same relative order. Splitting both copies must give the same keys
// and, from fresh runs, bit-equal Parts. In a third of the inputs the copy
// changes one score, and in another third one index link; then the keys
// may differ, but where they are equal the Parts must be too. mode picks
// the scorer: bit 0 scores through the Cache instead of the dense matrix,
// so the agenda keys pairs by rank; bit 1 drops the index, so each copy is
// one component.
func FuzzShapeIsomorphism(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(6), uint8(1), uint8(0))
	f.Add(int64(2), uint8(1), uint8(9), uint8(0), uint8(0))
	f.Add(int64(3), uint8(8), uint8(14), uint8(2), uint8(1))
	f.Add(int64(4), uint8(5), uint8(11), uint8(3), uint8(2))
	f.Add(int64(5), uint8(3), uint8(20), uint8(1), uint8(3))
	f.Add(int64(6), uint8(3), uint8(4), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kSel, nSel, thetaSel, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		k, n := 1+int(kSel)%maxShapeNames, 2+int(nSel)%16
		theta := []float64{0.5, 0.6, 0.65, 0.8}[int(thetaSel)%4]
		levels := []float64{0, 0.2, 0.5, 0.6, 0.65, 0.7, 0.8, 1}
		square := func() [][]float64 {
			out := make([][]float64, k)
			for i := range k {
				out[i] = make([]float64, k)
			}
			return out
		}
		tab, listed := square(), square() // listed[i][j] is 1 when the index lists the pair
		for i := range k {
			for j := i; j < k; j++ {
				s := 1.0
				if i != j {
					s = levels[r.Intn(len(levels))]
				}
				tab[i][j], tab[j][i] = s, s
				if (s >= theta) != (r.Intn(5) == 0) {
					listed[i][j], listed[j][i] = 1, 1
				}
			}
		}
		// The copy's tables: equal, or with one pair's score or link changed.
		variant, i0, j0 := r.Intn(3), r.Intn(k), r.Intn(k)
		qtab, qlisted := square(), square()
		for i := range k {
			copy(qtab[i], tab[i])
			copy(qlisted[i], listed[i])
		}
		switch {
		case variant == 1 && i0 != j0:
			s := levels[r.Intn(len(levels))]
			qtab[i0][j0], qtab[j0][i0] = s, s
		case variant == 2:
			qlisted[i0][j0], qlisted[j0][i0] = 1-listed[i0][j0], 1-listed[i0][j0]
		}
		perm := r.Perm(k) // label i is renamed q<perm[i]>
		name := func(fam byte, i int) string {
			if fam == 'q' {
				i = perm[i]
			}
			return string(fam) + strconv.Itoa(i)
		}
		m := labelMeasure{tabs: map[byte][][]float64{'p': tab, 'q': qtab}, labels: map[string]int{}}
		sim := strsim.NewCache(m)
		ids := map[byte][]int{'p': make([]int, k), 'q': make([]int, k)}
		for i := range k {
			m.labels[name('p', i)], m.labels[name('q', i)] = i, i
			ids['p'][i] = sim.Intern(name('p', i))
		}
		for _, i := range r.Perm(k) {
			ids['q'][i] = sim.Intern(name('q', i))
		}
		nbrs := make([][]int, sim.Len())
		for fam, lst := range map[byte][][]float64{'p': listed, 'q': qlisted} {
			for i := range k {
				for j := range k {
					if lst[i][j] == 1 {
						nbrs[ids[fam][i]] = append(nbrs[ids[fam][i]], ids[fam][j])
					}
				}
				slices.Sort(nbrs[ids[fam][i]])
			}
		}

		// Source j of each family draws its labels at random; the families'
		// sources interleave at random, each family keeping its order.
		var schemas [][]string
		S := map[byte][]int{}
		labelsOf := make([][]int, n)
		for j := range n {
			for range 1 + r.Intn(4) {
				labelsOf[j] = append(labelsOf[j], r.Intn(k))
			}
		}
		next := map[byte]int{}
		for _, fam := range interleave(r, n) {
			var attrs []string
			for _, l := range labelsOf[next[fam]] {
				attrs = append(attrs, name(fam, l))
			}
			S[fam] = append(S[fam], len(schemas))
			schemas = append(schemas, attrs)
			next[fam]++
		}
		u := mkUniverse(schemas...)
		cfg := Config{Theta: theta, Beta: 1 + r.Intn(3), Sim: sim}
		if mode&1 == 0 {
			cfg.Scores = mustMatrix(sim)
		}
		if mode&2 == 0 {
			cfg.Neighbors = nbrs
		}
		var split [2]*Components
		for x, fam := range []byte{'p', 'q'} {
			cfg.Scratch = &Scratch{}
			cs := Split(u, S[fam], nil, cfg)
			var all []int
			for i := range cs.Len() {
				all = append(all, i)
			}
			cs.Match(all)
			split[x] = cs
		}
		a, b := split[0], split[1]
		if variant == 0 && a.Len() != b.Len() {
			t.Fatalf("the copy splits into %d components, the original into %d", b.Len(), a.Len())
		}
		for i := range min(a.Len(), b.Len()) {
			if !bytes.Equal(a.Key(i), b.Key(i)) {
				if variant == 0 {
					t.Fatalf("component %d: the copy's key %x differs from the original's %x", i, b.Key(i), a.Key(i))
				}
				continue
			}
			pa, pb := a.Part(i), b.Part(i)
			if !reflect.DeepEqual(pa.GAs, pb.GAs) || !reflect.DeepEqual(pa.FromConstraint, pb.FromConstraint) ||
				!slices.EqualFunc(pa.Quality, pb.Quality, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("component %d (key %x): the copy's Part %+v differs from the original's %+v", i, a.Key(i), pb, pa)
			}
		}
	})
}

// interleave returns a random sequence of n 'p's and n 'q's.
func interleave(r *rand.Rand, n int) []byte {
	out := append(bytes.Repeat([]byte{'p'}, n), bytes.Repeat([]byte{'q'}, n)...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

package cluster

import (
	"cmp"
	"slices"

	"ube/internal/model"
	"ube/internal/strsim"
)

// refCluster is one cluster of algorithm1.
type refCluster struct {
	attrs []model.AttrRef
	keep  bool // holds a GA constraint: never eliminated
	grown bool // born of a merge
}

// algorithm1 is the reference Match is tested against: a literal
// transcription of Algorithm 1 (paper §3) on the sources S under source
// constraints C and GA constraints G, sharing no code with the agenda. It
// reads only cfg's Theta, Beta, Sim and Scores, and scores every pair of
// clusters every round, so it suits test-sized inputs only. The paper
// leaves the order of equal similarities open; algorithm1 fixes it, and
// the agenda's ords reproduce it (agenda.go, fact 2):
//   - the first list holds one cluster per GA constraint in G order, then
//     one singleton per remaining attribute, in S order and attribute
//     order within a source;
//   - pairs of equal similarity are walked in list order: by the position
//     of the first cluster, then of the second;
//   - the next round's list is the round's newborns in merge order,
//     followed by the surviving clusters in their old order.
func algorithm1(u *model.Universe, S, C []int, G []model.GA, cfg Config) Result {
	var scores strsim.Scorer = cfg.Sim
	if cfg.Scores != nil {
		scores = cfg.Scores
	}
	name := func(r model.AttrRef) int { return cfg.Sim.Intern(u.AttrName(r)) }
	// §3: the similarity of two clusters is the best similarity of an
	// attribute of one with an attribute of the other.
	sim := func(a, b *refCluster) float64 {
		best := 0.0
		for _, x := range a.attrs {
			for _, y := range b.attrs {
				if s := scores.Score(name(x), name(y)); s > best {
					best = s
				}
			}
		}
		return best
	}

	// Lines 1–4: a cluster per GA constraint, a singleton per other
	// attribute.
	var list []*refCluster
	inG := map[model.AttrRef]bool{}
	for _, g := range G {
		list = append(list, &refCluster{attrs: slices.Clone(g), keep: true})
		for _, r := range g {
			inG[r] = true
		}
	}
	for _, s := range S {
		for a := range u.Source(s).Attributes {
			if r := (model.AttrRef{Source: s, Attr: a}); !inG[r] {
				list = append(list, &refCluster{attrs: []model.AttrRef{r}})
			}
		}
	}

	// Lines 5–23: merge rounds until one merges nothing.
	type pair struct {
		i, j int
		s    float64
	}
	for {
		var queue []pair
		for i := range list {
			for j := i + 1; j < len(list); j++ {
				if s := sim(list[i], list[j]); s >= cfg.Theta {
					queue = append(queue, pair{i, j, s})
				}
			}
		}
		// Best first; the stable sort keeps equal similarities in list order.
		slices.SortStableFunc(queue, func(x, y pair) int { return cmp.Compare(y.s, x.s) })
		merged, cand := make([]bool, len(list)), make([]bool, len(list))
		var born []*refCluster
		for _, p := range queue {
			a, b := list[p.i], list[p.j]
			switch {
			case !merged[p.i] && !merged[p.j]:
				// Definition 1: a GA takes at most one attribute per source.
				if g := model.NewGA(append(slices.Clone(a.attrs), b.attrs...)...); g.Valid() {
					born = append(born, &refCluster{attrs: g, keep: a.keep || b.keep, grown: true})
					merged[p.i], merged[p.j] = true, true
				}
			case merged[p.i] && !merged[p.j]: // lines 15–19: the free partner may merge next round
				cand[p.j] = true
			case merged[p.j] && !merged[p.i]:
				cand[p.i] = true
			}
		}
		// Lines 20–22: drop the merged clusters and the singletons that
		// can never merge again.
		next := born
		for i, c := range list {
			if !merged[i] && (c.keep || c.grown || cand[i]) {
				next = append(next, c)
			}
		}
		list = next
		if len(born) == 0 {
			break
		}
	}

	// Line 24 with the β floor (§2.5): constraint GAs always, other GAs
	// with at least max(β, 2) attributes, in schema order.
	var res Result
	sum, schema := 0.0, &model.MediatedSchema{}
	for _, c := range list {
		if c.keep || len(c.attrs) >= max(cfg.Beta, 2) {
			schema.GAs = append(schema.GAs, model.NewGA(c.attrs...))
		}
	}
	slices.SortFunc(schema.GAs, func(a, b model.GA) int { return a[0].Compare(b[0]) })
	for _, g := range schema.GAs {
		// §3: a GA's quality is its best attribute pair; two attributes
		// of one name are a perfect match.
		q := 0.0
		for i, x := range g {
			for _, y := range g[i+1:] {
				s := 1.0
				if name(x) != name(y) {
					s = scores.Score(name(x), name(y))
				}
				q = max(q, s)
			}
		}
		sum += q
		res.GAQuality = append(res.GAQuality, q)
		res.FromConstraint = append(res.FromConstraint, slices.ContainsFunc(g, func(r model.AttrRef) bool { return inG[r] }))
	}
	if !schema.ValidOn(C) {
		return Result{}
	}
	res.Schema, res.Valid = schema, true
	if len(schema.GAs) > 0 {
		res.Quality = sum / float64(len(schema.GAs))
	}
	return res
}

package cluster

import (
	"encoding/binary"
	"slices"

	"ube/internal/model"
	"ube/internal/trace"
)

// This file evaluates Match(S) one θ-component at a time. Link two
// attribute names of S when the adjacency index lists them as neighbors
// at θ, and join the names of each GA constraint. Algorithm 1 never
// crosses a connected component of that graph, so its output on S is the
// union of its outputs on the components run one by one (DESIGN.md §7
// gives the argument):
//
//   - a merge needs a name pair scoring ≥ θ, which is an edge, so every
//     cluster stays inside one component;
//   - the walk's tie order is the seed order of the clusters, and a
//     component run seeds its clusters in the same relative order as the
//     whole run, so each component's pairs are walked in the same order;
//   - a pair's fate depends only on its two endpoints, and a round's
//     elimination only on a cluster's own flags, so rounds are local: once
//     a component stops merging, later rounds of the whole run change
//     nothing in it;
//   - only grown clusters and GA-constraint clusters reach the output, so
//     a component whose attributes all come from one source, with no GA
//     constraint, outputs nothing and need not run at all.
//
// Match on S is then the composition of the components' Parts: the GAs
// are their union, F1 is their mean summed in schema order, and S is
// valid on C when the composed schema passes Definition 2.

// Part is Algorithm 1's output on one θ-component of a candidate set. It
// depends only on the component's attribute slots and the clustering
// parameters, so a caller may reuse it for any other set with the same
// component (see Components.Key). A Part is immutable.
type Part struct {
	// GAs are the component's output GAs in schema order (by first
	// attribute); Quality and FromConstraint are parallel to them.
	GAs            []model.GA
	Quality        []float64
	FromConstraint []bool
}

// Components is the θ-component split of one candidate set, as built by
// Split. It lists only the components that can output a GA. It lives in
// the Scratch it was built with and is valid until that Scratch's next
// Split.
type Components struct {
	u     *model.Universe
	G     []model.GA
	cfg   Config
	slots []slotRec
	order []int32 // slot indices grouped by component, (source, attr) order within one
	comps []compRec
	keys  []byte
	gComp []int32 // component of each GA constraint
	parts []*Part // per component, once Set or Match fills it

	// Split's working memory. Per name ID: a union-find parent and the
	// component number, each current only when its stamp equals gen.
	mark, compMark  []uint32
	parent, compIdx []int32
	gen             uint32
	distinct        []int32
	tmp             []compTmp

	// F1's composition buffers.
	merged []gaAt
	gas    []model.GA
}

// slotRec is one attribute slot of the split set.
type slotRec struct {
	ref  model.AttrRef
	name int32 // interned name ID
	comp int32 // component number (Split's numbering, before trivial ones are dropped)
	inG  bool  // belongs to a GA constraint, so it is seeded in that keep cluster
}

// compRec is one component that can output a GA.
type compRec struct {
	lo, hi       int32 // its slots: order[lo:hi]
	keyLo, keyHi int32 // its memo key: keys[keyLo:keyHi]
}

// compTmp is a component's bookkeeping while Split numbers it.
type compTmp struct {
	root          int32 // smallest name ID
	n, srcs, last int32 // slots, distinct sources, last source seen
	hasG          bool
	keep          int32 // index in comps, or -1 when it cannot output a GA
}

// gaAt locates GA j of part p during composition.
type gaAt struct {
	first model.AttrRef
	p, j  int32
}

// Split partitions the attribute slots of S into θ-components (see the
// file comment) and returns the components that can output a GA, each
// keyed for memoization. S must be strictly ascending and, as for Match,
// contain G's sources. Without an adjacency index (cfg.Neighbors nil) all
// of S is one component. Split works in cfg.Scratch, allocating one when
// it is nil.
func Split(u *model.Universe, S []int, G []model.GA, cfg Config) *Components {
	if err := cfg.Validate(); err != nil {
		panic(err) // configuration is programmer-controlled
	}
	if cfg.Scores == nil {
		cfg.Scores = cfg.Sim
	}
	if cfg.Scratch == nil {
		cfg.Scratch = &Scratch{}
	}
	cs := &cfg.Scratch.split
	cs.u, cs.G, cs.cfg = u, G, cfg
	cs.gen++
	if cs.gen == 0 { // wrapped: a stale stamp could read as current
		clear(cs.mark)
		clear(cs.compMark)
		cs.gen = 1
	}
	cs.grow(len(cfg.Neighbors))
	cs.slots = cs.slots[:0]
	for _, s := range S {
		for a := range u.Source(s).Attributes {
			r := model.AttrRef{Source: s, Attr: a}
			n := cs.nameOf(r)
			cs.grow(int(n) + 1)
			cs.slots = append(cs.slots, slotRec{ref: r, name: n})
		}
	}
	cs.partition()
	return cs
}

// grow sizes the per-name arrays to cover name IDs below n.
func (cs *Components) grow(n int) {
	if n <= len(cs.mark) {
		return
	}
	more := n + n/4 - len(cs.mark)
	cs.mark = append(cs.mark, make([]uint32, more)...)
	cs.compMark = append(cs.compMark, make([]uint32, more)...)
	cs.parent = append(cs.parent, make([]int32, more)...)
	cs.compIdx = append(cs.compIdx, make([]int32, more)...)
}

// nameOf interns one attribute under the split's configuration.
func (cs *Components) nameOf(r model.AttrRef) int32 {
	if cs.cfg.NameIDs != nil {
		return int32(cs.cfg.NameIDs[r.Source][r.Attr])
	}
	return int32(cs.cfg.Sim.Intern(cs.u.AttrName(r)))
}

// partition splits cs.slots, which are in (source, attr) order, into
// components, and keeps and keys the ones that can output a GA.
func (cs *Components) partition() {
	gen := cs.gen
	stamp := func(n int32) {
		if cs.mark[n] != gen {
			cs.mark[n] = gen
			cs.parent[n] = n
			cs.distinct = append(cs.distinct, n)
		}
	}
	find := func(x int32) int32 {
		p := cs.parent
		for p[x] != x {
			p[x] = p[p[x]]
			x = p[x]
		}
		return x
	}
	// Union by smaller ID: a component's root is its smallest name ID,
	// the first half of its memo key.
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		switch {
		case ra < rb:
			cs.parent[rb] = ra
		case rb < ra:
			cs.parent[ra] = rb
		}
	}
	slotOf := func(r model.AttrRef) int {
		i, ok := slices.BinarySearchFunc(cs.slots, r, func(sl slotRec, r model.AttrRef) int { return sl.ref.Compare(r) })
		if !ok {
			return -1
		}
		return i
	}

	cs.distinct = cs.distinct[:0]
	for i := range cs.slots {
		stamp(cs.slots[i].name)
	}
	for _, g := range cs.G {
		for _, r := range g {
			if i := slotOf(r); i >= 0 {
				cs.slots[i].inG = true
			}
		}
	}
	nbrs := cs.cfg.Neighbors
	if nbrs == nil {
		for _, n := range cs.distinct {
			union(cs.distinct[0], n)
		}
	} else {
		for _, n := range cs.distinct {
			if int(n) >= len(nbrs) {
				continue
			}
			for _, nb := range nbrs[n] {
				if nb < len(cs.mark) && cs.mark[nb] == gen {
					union(n, int32(nb))
				}
			}
		}
	}
	for _, g := range cs.G {
		for _, r := range g {
			n := cs.nameOf(r)
			cs.grow(int(n) + 1)
			stamp(n)
			union(cs.nameOf(g[0]), n)
		}
	}

	// Number the components in order of first appearance.
	cs.tmp = cs.tmp[:0]
	compOf := func(n int32) int32 {
		root := find(n)
		if cs.compMark[root] != gen {
			cs.compMark[root] = gen
			cs.compIdx[root] = int32(len(cs.tmp))
			cs.tmp = append(cs.tmp, compTmp{root: root, last: -1})
		}
		return cs.compIdx[root]
	}
	for i := range cs.slots {
		sl := &cs.slots[i]
		sl.comp = compOf(sl.name)
		t := &cs.tmp[sl.comp]
		t.n++
		if src := int32(sl.ref.Source); src != t.last {
			t.srcs++
			t.last = src
		}
	}
	cs.gComp = cs.gComp[:0]
	for _, g := range cs.G {
		c := compOf(cs.nameOf(g[0]))
		cs.tmp[c].hasG = true
		cs.gComp = append(cs.gComp, c)
	}

	// Keep the components that can output a GA and group their slots.
	cs.comps = cs.comps[:0]
	var off int32
	for i := range cs.tmp {
		t := &cs.tmp[i]
		t.keep = -1
		if t.hasG || t.srcs >= 2 {
			t.keep = int32(len(cs.comps))
			cs.comps = append(cs.comps, compRec{lo: off, hi: off})
			off += t.n
		}
	}
	cs.order = slices.Grow(cs.order[:0], int(off))[:off]
	for i := range cs.slots {
		if k := cs.tmp[cs.slots[i].comp].keep; k >= 0 {
			c := &cs.comps[k]
			cs.order[c.hi] = int32(i)
			c.hi++
		}
	}
	for gi, c := range cs.gComp {
		cs.gComp[gi] = cs.tmp[c].keep
	}

	// Key each kept component by its smallest name ID and then its
	// ascending contributing sources, as uvarints: the encoding is
	// uniquely decodable, so equal keys mean equal (root, sources). That
	// pair fixes the component: it is the component of root in the graph
	// on the named sources' names.
	cs.keys = cs.keys[:0]
	for i := range cs.tmp {
		k := cs.tmp[i].keep
		if k < 0 {
			continue
		}
		c := &cs.comps[k]
		c.keyLo = int32(len(cs.keys))
		cs.keys = binary.AppendUvarint(cs.keys, uint64(cs.tmp[i].root))
		last := -1
		for _, si := range cs.order[c.lo:c.hi] {
			if s := cs.slots[si].ref.Source; s != last {
				cs.keys = binary.AppendUvarint(cs.keys, uint64(s))
				last = s
			}
		}
		c.keyHi = int32(len(cs.keys))
	}
	cs.parts = slices.Grow(cs.parts[:0], len(cs.comps))[:len(cs.comps)]
	clear(cs.parts)
}

// Len reports the number of components that can output a GA.
func (cs *Components) Len() int { return len(cs.comps) }

// Key returns component i's memo key. Within one set of clustering
// parameters (θ, β, G and the scorer), equal keys have equal Parts. The
// bytes alias the Scratch and change on its next Split.
func (cs *Components) Key(i int) []byte {
	c := cs.comps[i]
	return cs.keys[c.keyLo:c.keyHi]
}

// Set installs a Part for component i, typically a memoized one.
func (cs *Components) Set(i int, p *Part) { cs.parts[i] = p }

// Part returns component i's Part, or nil before Set or Match.
func (cs *Components) Part(i int) *Part { return cs.parts[i] }

// Match runs Algorithm 1 on each listed component, one component at a
// time, and installs the resulting Parts. Running them one by one keeps
// the work counters a function of the components alone, whichever
// caller computes which component.
func (cs *Components) Match(idx []int) {
	cfg, sc := cs.cfg, cs.cfg.Scratch
	for _, k := range idx {
		cfg.Stats.Add(trace.CMatchRuns, 1)
		clusters := cs.seed(k, sc)
		if cfg.LegacyAgenda {
			clusters = run(clusters, cfg)
		} else {
			clusters = runAgenda(clusters, nil, false, cfg, sc)
		}
		cs.parts[k] = assemblePart(clusters, cs.G, cfg)
	}
}

// seed builds component k's initial clusters in the relative order
// whole-set seeding gives them: its GA constraints' keep clusters in G
// order, then one singleton per remaining slot in (source, attr) order.
func (cs *Components) seed(k int, sc *Scratch) []*workCluster {
	c := cs.comps[k]
	nG := 0
	for _, gk := range cs.gComp {
		if int(gk) == k {
			nG++
		}
	}
	sc.reset(nG+int(c.hi-c.lo), int(c.hi-c.lo))
	clusters := sc.list[:0]
	for gi, gk := range cs.gComp {
		if int(gk) == k {
			clusters = append(clusters, sc.keepCluster(cs.G[gi], cs.intern))
		}
	}
	for _, si := range cs.order[c.lo:c.hi] {
		if sl := &cs.slots[si]; !sl.inG {
			clusters = append(clusters, sc.singleton(sl.ref, int(sl.name)))
		}
	}
	sc.list = clusters
	return clusters
}

// intern is nameOf in the form keepCluster takes.
func (cs *Components) intern(r model.AttrRef) int { return int(cs.nameOf(r)) }

// F1 composes the installed Parts into the set's matching quality and
// its validity on C: the mean GA quality, summed in schema order, and
// whether the composed schema satisfies Definition 2 on C. It is
// Result(C).Quality and .Valid without building the Result. Every
// component must have its Part.
func (cs *Components) F1(C []int) (float64, bool) {
	cs.merged = mergeOrder(cs.parts, cs.merged[:0])
	cs.gas = cs.gas[:0]
	for _, at := range cs.merged {
		cs.gas = append(cs.gas, cs.parts[at.p].GAs[at.j])
	}
	schema := model.MediatedSchema{GAs: cs.gas}
	if !schema.ValidOn(C) {
		return 0, false
	}
	if len(cs.merged) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, at := range cs.merged {
		sum += cs.parts[at.p].Quality[at.j]
	}
	return sum / float64(len(cs.merged)), true
}

// Result composes the installed Parts into the Result Match returns for
// the whole set. Every component must have its Part.
func (cs *Components) Result(C []int) Result {
	return compose(cs.parts, C)
}

// compose merges parts into one Result (Algorithm 1 line 24 on their
// union): GAs in schema order, validity on C, and F1.
func compose(parts []*Part, C []int) Result {
	var res Result
	schema := &model.MediatedSchema{}
	for _, at := range mergeOrder(parts, nil) {
		p := parts[at.p]
		schema.GAs = append(schema.GAs, p.GAs[at.j])
		res.GAQuality = append(res.GAQuality, p.Quality[at.j])
		res.FromConstraint = append(res.FromConstraint, p.FromConstraint[at.j])
	}
	if !schema.ValidOn(C) {
		// No matching satisfies both the threshold and the source
		// constraints for this set of sources.
		return Result{}
	}
	res.Schema = schema
	res.Valid = true
	if len(schema.GAs) > 0 {
		sum := 0.0
		for _, q := range res.GAQuality {
			sum += q
		}
		res.Quality = sum / float64(len(schema.GAs))
	}
	return res
}

// mergeOrder appends every GA of parts to out in schema order: by first
// attribute, which distinct GAs of a valid schema never share.
func mergeOrder(parts []*Part, out []gaAt) []gaAt {
	for p, part := range parts {
		for j, g := range part.GAs {
			out = append(out, gaAt{first: g[0], p: int32(p), j: int32(j)})
		}
	}
	slices.SortFunc(out, func(a, b gaAt) int { return a.first.Compare(b.first) })
	return out
}

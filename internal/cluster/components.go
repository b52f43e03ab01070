package cluster

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"ube/internal/model"
	"ube/internal/ubedebug"
)

// This file evaluates Match(S) one θ-component at a time. Link two
// attribute names of S when the adjacency index lists them and they score
// ≥ θ, and join the names of each GA constraint. Algorithm 1 never
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
//     constraint, outputs nothing and need not run at all;
//   - a component where no source has two slots is decided in closed
//     form, in the pass that splits S (closedPart), with no memo key and
//     no run: Algorithm 1 merges it into one GA.
//
// Match on S is then the composition of the components' Parts: the GAs
// are their union, F1 is their mean summed in schema order, and S is
// valid on C when the composed schema passes Definition 2.

// Part is Algorithm 1's output on one θ-component of a candidate set. It
// depends only on what the run can tell of the component's attribute
// slots and on the clustering parameters, so a caller may reuse it for
// any component with the same key, in this set or another (see
// Components.Key). A Part is immutable.
type Part struct {
	// GAs are the component's output GAs in schema order, each as
	// ascending positions in the component's slot list. That list is in
	// (source, attr) order and a GA holds one slot per source, so the
	// positions map to the GA's canonical attribute order. Quality and
	// FromConstraint are parallel to GAs.
	GAs            [][]int32
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

	// Split's working memory. Per name ID: a union-find parent, the
	// component number and the label in a shape key, each current only
	// when its stamp equals gen.
	mark, compMark  []uint32
	parent, compIdx []int32
	label           []uint8
	gen             uint32
	distinct        []int32
	edges           [][2]int32 // adjacency index links between names of S
	tmp             []compTmp
	open            int // comps[:open] run Algorithm 1; the rest are in closed form

	merged []gaAt // F1's composition buffer
}

// slotRec is one attribute slot of the split set.
type slotRec struct {
	ref  model.AttrRef
	name int32 // interned name ID
	comp int32 // component number (Split's numbering, before trivial ones are dropped)
	pos  int32 // position in its kept component's slot list
	inG  bool  // belongs to a GA constraint, so it is seeded in that keep cluster
}

// compRec is one component that can output a GA.
type compRec struct {
	lo, hi       int32   // its slots: order[lo:hi]
	keyLo, keyHi int32   // its memo key: keys[keyLo:keyHi]
	shape        bool    // keyed by shape, not identity
	out, fromG   bool    // closed form: it outputs its one GA, which holds a GA constraint
	q            float64 // closed form: that GA's quality
}

// Memo key kinds (see Components.Key).
const (
	identityKey   = 'i'
	shapeKey      = 's'
	maxShapeNames = 8 // a component with more distinct names is keyed by identity
)

// compTmp is a component's bookkeeping while Split numbers it.
type compTmp struct {
	root          int32 // smallest name ID
	n, srcs, last int32 // slots, distinct sources, last source seen
	hasG          bool
	keep          int32 // index in comps, or -1 when it cannot output a GA
}

// gaAt is one output GA during F1's composition: the slot index of its
// first attribute and its quality.
type gaAt struct {
	first int32
	q     float64
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
	checkSlots(len(cs.slots))
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
	cs.label = append(cs.label, make([]uint8, more)...)
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
	// the first half of its identity key.
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		switch {
		case ra < rb:
			cs.parent[rb] = ra
		case rb < ra:
			cs.parent[ra] = rb
		}
	}
	cs.distinct = cs.distinct[:0]
	for i := range cs.slots {
		stamp(cs.slots[i].name)
	}
	for _, g := range cs.G {
		for _, r := range g {
			if i := cs.slotOf(r); i >= 0 {
				cs.slots[i].inG = true
			}
		}
	}
	nbrs := cs.cfg.Neighbors
	cs.edges = cs.edges[:0]
	if nbrs == nil {
		for _, n := range cs.distinct {
			union(cs.distinct[0], n)
		}
	} else {
		// The index may list links under θ (see Config.Neighbors): those
		// join no cluster, so they join no component.
		for _, n := range cs.distinct {
			if int(n) >= len(nbrs) {
				continue
			}
			for _, nb := range nbrs[n] {
				if nb < len(cs.mark) && cs.mark[nb] == gen {
					if cs.cfg.Scores.Score(int(n), nb) >= cs.cfg.Theta {
						union(n, int32(nb))
					}
					cs.edges = append(cs.edges, [2]int32{n, int32(nb)})
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
			cs.tmp = append(cs.tmp, compTmp{root: root, last: -1, keep: -1})
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

	// Keep the components that can output a GA, those where a source
	// repeats first, and group their slots. A source-disjoint component
	// is decided in closed form (see closedPart), which needs the index:
	// without one, the links do not connect it at θ.
	cs.comps = cs.comps[:0]
	var off int32
	for _, closed := range [2]bool{false, true} {
		if closed {
			cs.open = len(cs.comps)
		}
		for i := range cs.tmp {
			if t := &cs.tmp[i]; (t.hasG || t.srcs >= 2) && closed == (nbrs != nil && t.n == t.srcs) {
				t.keep = int32(len(cs.comps))
				cs.comps = append(cs.comps, compRec{lo: off, hi: off, out: t.hasG || t.n >= int32(max(cs.cfg.Beta, 2)), fromG: t.hasG})
				off += t.n
			}
		}
	}
	cs.cfg.Scratch.closed += int64(len(cs.comps) - cs.open)
	cs.order = slices.Grow(cs.order[:0], int(off))[:off]
	for i := range cs.slots {
		if k := cs.tmp[cs.slots[i].comp].keep; k >= 0 {
			c := &cs.comps[k]
			cs.slots[i].pos = c.hi - c.lo
			cs.order[c.hi] = int32(i)
			c.hi++
		}
	}
	for gi, c := range cs.gComp {
		cs.gComp[gi] = cs.tmp[c].keep
	}

	// Key each component where a source repeats (see Key). An identity
	// key is the smallest name ID and then the ascending contributing
	// sources, as uvarints: the encoding is uniquely decodable, so equal
	// keys mean equal (root, sources). That pair fixes the component: it
	// is the component of root in the graph on the named sources' names.
	cs.keys = cs.keys[:0]
	for i := range cs.tmp {
		t := &cs.tmp[i]
		if int(t.keep) < 0 || int(t.keep) >= cs.open {
			continue
		}
		c := &cs.comps[t.keep]
		c.keyLo = int32(len(cs.keys))
		c.shape = !t.hasG && cs.appendShapeKey(c)
		if !c.shape {
			cs.keys = append(cs.keys, identityKey)
			cs.keys = binary.AppendUvarint(cs.keys, uint64(t.root))
			last := -1
			for _, si := range cs.order[c.lo:c.hi] {
				if s := cs.slots[si].ref.Source; s != last {
					cs.keys = binary.AppendUvarint(cs.keys, uint64(s))
					last = s
				}
			}
		}
		c.keyHi = int32(len(cs.keys))
	}
	// Fill in each shape key's adjacency mask, its last 8 bytes: bit
	// 8i+j says the index lists label j's name among label i's neighbors,
	// at any score: a lossy index's run can depend on a link under θ.
	for _, e := range cs.edges {
		r := find(e[0])
		k := cs.tmp[cs.compIdx[r]].keep
		if k < 0 || !cs.comps[k].shape || find(e[1]) != r {
			continue
		}
		bit := int(cs.label[e[0]])*maxShapeNames + int(cs.label[e[1]])
		cs.keys[int(cs.comps[k].keyHi)-8+bit/8] |= 1 << (bit % 8)
	}
	// A closed-form GA's quality, as quality computes it: 1 when a name
	// repeats, else the best score over its names.
	for k := cs.open; k < len(cs.comps); k++ {
		c := &cs.comps[k]
	pairs:
		for x, a := range cs.order[c.lo:c.hi] {
			for _, b := range cs.order[c.lo+int32(x)+1 : c.hi] {
				na, nb := cs.slots[a].name, cs.slots[b].name
				if na == nb {
					c.q = 1
					break pairs
				}
				c.q = max(c.q, cs.cfg.Scores.Score(int(min(na, nb)), int(max(na, nb))))
			}
		}
	}
	cs.parts = slices.Grow(cs.parts[:0], len(cs.comps))[:len(cs.comps)]
	clear(cs.parts)
}

// appendShapeKey appends component c's shape key to cs.keys and labels its
// names in cs.label, or appends nothing and reports false when c has more
// than maxShapeNames distinct names. The key is the slot count, then one
// byte per slot (its name's label, numbered by first occurrence, plus
// maxShapeNames when the slot starts a new source), then the float64 bits
// of Score for every label pair i ≤ j, then a zero adjacency mask for
// partition to fill in. The slot bytes fix the name count, so the
// encoding is uniquely decodable.
func (cs *Components) appendShapeKey(c *compRec) bool {
	var names [maxShapeNames]int32
	k, start, last := 0, len(cs.keys), -1
	cs.keys = append(cs.keys, shapeKey)
	cs.keys = binary.AppendUvarint(cs.keys, uint64(c.hi-c.lo))
	for _, si := range cs.order[c.lo:c.hi] {
		sl := &cs.slots[si]
		l := slices.Index(names[:k], sl.name)
		if l < 0 {
			if k == maxShapeNames {
				cs.keys = cs.keys[:start]
				return false
			}
			l, names[k] = k, sl.name
			cs.label[sl.name] = uint8(k)
			k++
		}
		b := byte(l)
		if sl.ref.Source != last {
			b |= maxShapeNames
			last = sl.ref.Source
		}
		cs.keys = append(cs.keys, b)
	}
	for i, a := range names[:k] {
		for _, b := range names[i:k] {
			cs.keys = binary.LittleEndian.AppendUint64(cs.keys, math.Float64bits(cs.cfg.Scores.Score(int(a), int(b))))
		}
	}
	cs.keys = binary.LittleEndian.AppendUint64(cs.keys, 0)
	return true
}

// slotOf returns the index of slot r, or -1 when S has no such slot.
func (cs *Components) slotOf(r model.AttrRef) int {
	i, ok := slices.BinarySearchFunc(cs.slots, r, func(sl slotRec, r model.AttrRef) int { return sl.ref.Compare(r) })
	if !ok {
		return -1
	}
	return i
}

// slot returns the slot at position pos of component k.
func (cs *Components) slot(k int, pos int32) *slotRec {
	return &cs.slots[cs.order[cs.comps[k].lo+pos]]
}

// Len reports the number of components that can output a GA and are
// not decided in closed form: those where a source has two slots. Key,
// Set, Part and Match number them 0…Len()−1.
func (cs *Components) Len() int { return cs.open }

// Closed reports the number of components decided in closed form. Audit
// numbers them Len()…Len()+Closed()−1.
func (cs *Components) Closed() int { return len(cs.comps) - cs.open }

// Key returns component i's memo key. Within one set of clustering
// parameters (θ, β, G, the scorer and the adjacency index), equal keys
// have equal Parts. A component with no GA constraint and at most
// maxShapeNames distinct names is keyed by its shape, so components of
// other sets, or other components of this one, that Algorithm 1 cannot
// tell apart share its key (DESIGN.md §7); any other component is keyed
// by identity. The bytes alias the Scratch and change on its next Split.
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
	cfg := cs.cfg
	for _, k := range idx {
		cfg.Scratch.runs++
		cs.parts[k] = cs.run(k, cfg)
	}
	cfg.Scratch.flush(cfg.Stats)
}

// run runs Algorithm 1 on component k in cfg.Scratch.
func (cs *Components) run(k int, cfg Config) *Part {
	clusters := runAgenda(cs.seed(k, cfg.Scratch), nil, false, cfg, cfg.Scratch)
	return assemblePart(clusters, cfg)
}

// Audit re-runs Algorithm 1 on component i in a private Scratch with no
// Stats, so no counter moves, and panics unless component i's installed
// or closed-form Part is bit-equal to the fresh one. It is the ubedebug
// build's check on memoized and closed-form Parts.
func (cs *Components) Audit(i int) {
	p, q, same := cs.audit(i)
	ubedebug.Assert(same, "cluster: Part %+v of component %d differs from a fresh run's %+v", p, i, q)
	ubedebug.CountAudit()
}

// audit returns component i's installed or closed-form Part, Audit's
// fresh run of it, and whether the two are bit-equal.
func (cs *Components) audit(i int) (p, q *Part, same bool) {
	cfg := cs.cfg
	cfg.Scratch, cfg.Stats = &Scratch{}, nil
	if p, q = cs.parts[i], cs.run(i, cfg); i >= cs.open {
		p = cs.closedPart(i)
	}
	return p, q, slices.EqualFunc(p.GAs, q.GAs, slices.Equal[[]int32]) && slices.Equal(p.FromConstraint, q.FromConstraint) &&
		slices.EqualFunc(p.Quality, q.Quality, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
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
			clusters = append(clusters, sc.keepCluster(cs.G[gi], func(r model.AttrRef) (int32, int) {
				sl := &cs.slots[cs.slotOf(r)]
				return sl.pos, int(sl.name)
			}))
		}
	}
	for pos, si := range cs.order[c.lo:c.hi] {
		if sl := &cs.slots[si]; !sl.inG {
			clusters = append(clusters, sc.singleton(int32(pos), sl.ref.Source, int(sl.name)))
		}
	}
	sc.list = clusters
	return clusters
}

// F1 composes the installed Parts into the set's matching quality and
// its validity on C: the mean GA quality, summed in schema order, and
// whether the composed schema satisfies Definition 2 on C. It is
// Result(C).Quality and .Valid without building the Result: the output
// GAs are valid and pairwise disjoint by construction (G must be a valid
// partial schema, as Constraints.Validate ensures), so the schema is valid
// on C iff every source of C has a slot in some output GA. Every
// component must have its Part.
func (cs *Components) F1(C []int) (float64, bool) {
	valid := true
	for _, src := range C {
		valid = valid && cs.touches(src)
	}
	if ubedebug.Enabled && ubedebug.ShouldAudit() {
		ubedebug.Assert(valid == cs.Result(C).Valid, "cluster: F1's validity %v on %v disagrees with MediatedSchema.ValidOn", valid, C)
		ubedebug.CountAudit()
	}
	if !valid {
		return 0, false
	}
	cs.merged = cs.mergeOrder(cs.merged[:0])
	if len(cs.merged) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, at := range cs.merged {
		sum += at.q
	}
	return sum / float64(len(cs.merged)), true
}

// touches reports whether some output GA holds a slot of source src.
func (cs *Components) touches(src int) bool {
	for k, p := range cs.parts[:cs.open] {
		for _, g := range p.GAs {
			for _, pos := range g {
				if cs.slot(k, pos).ref.Source == src {
					return true
				}
			}
		}
	}
	for _, c := range cs.comps[cs.open:] {
		if c.out && slices.ContainsFunc(cs.order[c.lo:c.hi], func(si int32) bool { return cs.slots[si].ref.Source == src }) {
			return true
		}
	}
	return false
}

// mergeOrder appends every installed GA to out in schema order: by the
// slot index of its first attribute, which distinct GAs never share.
// Slots are in (source, attr) order, so that is first-attribute order.
func (cs *Components) mergeOrder(out []gaAt) []gaAt {
	for k, p := range cs.parts[:cs.open] {
		for j, g := range p.GAs {
			out = append(out, gaAt{first: cs.order[cs.comps[k].lo+g[0]], q: p.Quality[j]})
		}
	}
	for _, c := range cs.comps[cs.open:] {
		if c.out {
			out = append(out, gaAt{first: cs.order[c.lo], q: c.q})
		}
	}
	slices.SortFunc(out, func(a, b gaAt) int { return cmp.Compare(a.first, b.first) })
	return out
}

// Result composes the installed and closed-form Parts into the Result
// Match returns for the whole set. Every component must have its Part.
func (cs *Components) Result(C []int) Result {
	for k := cs.open; k < len(cs.comps); k++ {
		cs.parts[k] = cs.closedPart(k)
	}
	return compose(cs.parts, func(k int, pos int32) model.AttrRef { return cs.slot(k, pos).ref }, C)
}

// closedPart is Algorithm 1's output on closed-form component k: one GA
// of every slot, with the quality partition found, kept iff it holds a
// GA constraint or max(β, 2) slots (DESIGN.md §7).
func (cs *Components) closedPart(k int) *Part {
	c := &cs.comps[k]
	if !c.out {
		return &Part{}
	}
	pos := make([]int32, c.hi-c.lo)
	for i := range pos {
		pos[i] = int32(i)
	}
	return &Part{GAs: [][]int32{pos}, Quality: []float64{c.q}, FromConstraint: []bool{c.fromG}}
}

// compose merges parts into one Result (Algorithm 1 line 24 on their
// union): GAs in schema order, validity on C, and F1. ref maps a position
// of part p to its attribute.
func compose(parts []*Part, ref func(p int, pos int32) model.AttrRef, C []int) Result {
	type built struct {
		g      model.GA
		q      float64
		exempt bool
	}
	var all []built
	for p, part := range parts {
		for j, pos := range part.GAs {
			g := make(model.GA, len(pos))
			for i, x := range pos {
				g[i] = ref(p, x)
			}
			slices.SortFunc(g, model.AttrRef.Compare)
			all = append(all, built{g, part.Quality[j], part.FromConstraint[j]})
		}
	}
	slices.SortFunc(all, func(a, b built) int { return a.g[0].Compare(b.g[0]) })
	var res Result
	schema := &model.MediatedSchema{}
	for _, b := range all {
		schema.GAs = append(schema.GAs, b.g)
		res.GAQuality = append(res.GAQuality, b.q)
		res.FromConstraint = append(res.FromConstraint, b.exempt)
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

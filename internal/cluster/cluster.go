// Package cluster implements µBE's schema matching operator Match(S): the
// greedy constrained similarity clustering of Algorithm 1 (paper §3).
//
// Match takes a set of sources and produces a mediated schema — a set of
// GAs, each a cluster of attributes from different sources — together with
// a measure of matching quality that serves as the F1 QEF. User-supplied GA
// constraints seed clusters that are never discarded, bridging semantic
// gaps the similarity measure cannot see (the "Matching By Example" idea,
// Figure 3): a cluster containing the dissimilar pair (a, b) keeps growing
// because attributes similar to a join via a and attributes similar to b
// join via b, without being penalized by the other's presence.
//
// Cluster-to-cluster similarity is the maximum similarity between an
// attribute of one and an attribute of the other, and the quality of a
// cluster is the maximum similarity between any two of its attributes, both
// as defined in §3.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/trace"
)

// Config carries the clustering parameters of the optimization problem.
type Config struct {
	// Theta is the matching threshold θ: two clusters merge only if
	// their similarity is at least Theta. The paper's default is 0.65.
	Theta float64
	// Beta is the lower bound β on the number of attributes in any
	// output GA that does not stem from a GA constraint. Algorithm 1
	// only ever outputs grown clusters of size ≥ 2, so Beta ≤ 2 is a
	// no-op; larger values filter small GAs from the result.
	Beta int
	// Sim interns attribute names and caches pairwise similarities. It
	// must be non-nil; callers share one cache across all Match calls on
	// a universe so that re-clustering during search is cheap.
	Sim *strsim.Cache
	// Scores optionally overrides Sim for scoring interned name pairs,
	// typically with a precomputed strsim.Matrix over the universe's
	// vocabulary. Nil means score through Sim.
	Scores strsim.Scorer
	// Neighbors optionally indexes, for every interned name ID, the
	// name IDs with similarity ≥ Theta (see strsim.Matrix.Neighbors).
	// When present, merge-candidate enumeration touches only cluster
	// pairs with a known above-threshold name link instead of scoring
	// all Θ(k²) pairs each round. It must be built for the same
	// vocabulary as Scores and the same (or lower) threshold.
	Neighbors [][]int
	// NameIDs optionally maps NameIDs[sourceID][attrIndex] to the
	// interned name ID of that attribute, letting seed skip the
	// per-call interning (a lock acquire + normalization per attribute
	// per Match). The engine precomputes it once per universe. The IDs
	// must come from Sim so that Scores and Neighbors line up.
	NameIDs [][]int
	// Scratch optionally supplies reusable working memory for Match.
	// A Scratch must not be shared by concurrent Match calls; callers
	// running parallel evaluations keep one per worker. Nil makes Match
	// allocate fresh (correct, just slower — the clustering loop's
	// allocation traffic is a large share of solve time otherwise).
	Scratch *Scratch
	// Seed optionally holds the universe-level precomputed round-1
	// agenda (see BuildSeedPairs). When it applies to a call — same
	// matrix and θ, no GA constraints, strictly ascending S — Match
	// gathers the initial candidate pairs from it instead of
	// enumerating, scoring and sorting them. Nil disables the fast path.
	Seed *SeedPairs
	// LegacyAgenda selects the seed implementation of the merge rounds
	// (re-enumerate, re-score and fully sort all candidate pairs every
	// round) instead of the heap agenda (see agenda.go). The two are
	// byte-identical in output; the flag exists for differential tests
	// and ablations.
	LegacyAgenda bool
	// Stats, when non-nil, receives the clustering work counters (runs,
	// rounds, agenda pops, pairs admitted) for solve tracing. A pure
	// side channel: results never depend on it, and counts accumulate
	// locally per Match call and flush once, so the hot loops carry no
	// atomics. Note the two agenda implementations do equivalent work
	// but count it differently (the legacy path re-enumerates pairs
	// every round), so counter values are comparable only within one
	// implementation.
	Stats *trace.Stats
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("cluster: theta %v outside [0,1]", c.Theta)
	}
	if c.Beta < 1 {
		return fmt.Errorf("cluster: beta %d < 1", c.Beta)
	}
	if c.Sim == nil {
		return fmt.Errorf("cluster: nil similarity cache")
	}
	return nil
}

// Result is the outcome of one Match call.
type Result struct {
	// Schema is the generated mediated schema, nil when no matching
	// satisfies both the threshold and the source constraints (the
	// algorithm's "return NULL" case).
	Schema *model.MediatedSchema
	// Quality is the F1 value: the mean, over the GAs of Schema, of each
	// GA's quality of matching. Zero when Schema is nil or empty.
	Quality float64
	// GAQuality holds the per-GA quality, parallel to Schema.GAs.
	GAQuality []float64
	// FromConstraint marks, parallel to Schema.GAs, the GAs that contain
	// a user GA constraint and are therefore exempt from the θ and β
	// floors (§2.5).
	FromConstraint []bool
	// Valid reports whether the schema is valid on the source
	// constraints C. When false, Schema is nil and Quality is 0.
	Valid bool
}

// workCluster is one cluster during Algorithm 1. Clusters hold their
// attributes, the set of sources they touch (for GA validity), and the set
// of distinct interned attribute names (similarity depends only on names,
// so deduplicating them makes max-link computation cheap on synthetic
// universes where the same name recurs across many sources).
type workCluster struct {
	attrs []model.AttrRef
	srcs  []int // sorted source IDs (one attr per source in a valid GA)
	names []int // sorted unique interned name IDs
	keep  bool  // seeded by a GA constraint: never eliminated
	grown bool  // created by a merge in some round

	// Heap-agenda state (agenda.go). ord is a stable rank reproducing
	// the legacy slice-position order; idx is the cluster's slot in the
	// arena (so agenda entries can be pointer-free — a pointer-bearing
	// entry type makes every sort swap and heap sift pay a GC write
	// barrier, which dominates the profile); the rest is round status.
	ord      int32
	idx      int32
	mergedIn int          // round this cluster was merged away in (0 = alive)
	cand     bool         // merge candidate this round (survives elimination)
	gone     bool         // eliminated
	markBy   *workCluster // pair-enumeration dedup mark
}

// Match runs Algorithm 1 on the schemas of the sources in S under source
// constraints C and GA constraints G. The caller must guarantee S ⊇ C and
// S ⊇ the sources implied by G (the engine arranges both; see §3: "we
// ensure for any call to Match(S) that S contains C").
func Match(u *model.Universe, S []int, C []int, G []model.GA, cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err) // configuration is programmer-controlled
	}

	cfg.Stats.Add(trace.CMatchRuns, 1)
	if cfg.Scores == nil {
		cfg.Scores = cfg.Sim
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	clusters := seed(u, S, G, cfg, sc)
	if cfg.LegacyAgenda {
		clusters = run(clusters, cfg)
	} else {
		var seedQ []agendaEntry
		preGathered := seedCompatible(cfg.Seed, S, G, cfg)
		if preGathered {
			seedQ = gatherSeed(u, S, cfg.Seed, sc.queue[:0])
		}
		clusters = runAgenda(clusters, seedQ, preGathered, cfg, sc)
	}
	return assemble(clusters, C, G, cfg)
}

// seed builds the initial cluster list: one keep-cluster per GA constraint,
// then one singleton per remaining attribute of every source in S
// (Algorithm 1 lines 1–4).
func seed(u *model.Universe, S []int, G []model.GA, cfg Config, sc *Scratch) []*workCluster {
	intern := func(r model.AttrRef) int {
		if cfg.NameIDs != nil {
			return cfg.NameIDs[r.Source][r.Attr]
		}
		return cfg.Sim.Intern(u.AttrName(r))
	}

	nSlots := 0
	for _, id := range S {
		nSlots += len(u.Source(id).Attributes)
	}
	sc.reset(len(G)+nSlots, nSlots)
	clusters := sc.list[:0]
	var inConstraint map[model.AttrRef]struct{}
	if len(G) > 0 {
		inConstraint = make(map[model.AttrRef]struct{})
		for _, g := range G {
			clusters = append(clusters, sc.keepCluster(g, intern))
			for _, r := range g {
				inConstraint[r] = struct{}{}
			}
		}
	}
	for _, id := range S {
		src := u.Source(id)
		for a := range src.Attributes {
			r := model.AttrRef{Source: id, Attr: a}
			if _, taken := inConstraint[r]; taken {
				continue
			}
			clusters = append(clusters, sc.singleton(r, intern(r)))
		}
	}
	sc.list = clusters
	return clusters
}

func addSource(c *workCluster, id int) {
	i := sort.SearchInts(c.srcs, id)
	if i < len(c.srcs) && c.srcs[i] == id {
		return
	}
	c.srcs = append(c.srcs, 0)
	copy(c.srcs[i+1:], c.srcs[i:])
	c.srcs[i] = id
}

func addName(c *workCluster, nameID int) {
	i := sort.SearchInts(c.names, nameID)
	if i < len(c.names) && c.names[i] == nameID {
		return
	}
	c.names = append(c.names, 0)
	copy(c.names[i+1:], c.names[i:])
	c.names[i] = nameID
}

// pair is a candidate merge, ordered by similarity (desc) with a
// deterministic index tiebreak.
type pair struct {
	i, j int
	sim  float64
}

// run executes the iterative merge rounds (Algorithm 1 lines 5–23).
func run(clusters []*workCluster, cfg Config) []*workCluster {
	var rounds, pops, admitted int64
	for {
		rounds++
		done := true
		merged := make([]bool, len(clusters))
		cand := make([]bool, len(clusters))

		// Find all cluster pairs with similarity ≥ θ, best first
		// (line 8's priority queue, realized as a sorted slice).
		pairs := collectPairs(clusters, cfg)
		admitted += int64(len(pairs))
		pops += int64(len(pairs))

		var born []*workCluster
		for _, p := range pairs {
			mi, mj := merged[p.i], merged[p.j]
			switch {
			case !mi && !mj:
				if a, b := clusters[p.i], clusters[p.j]; disjointSources(a, b) {
					born = append(born, merge(a, b))
					merged[p.i], merged[p.j] = true, true
					done = false
				}
			case mi != mj:
				// One partner was taken this round; remember the
				// other so it survives into the next round
				// (lines 15–19).
				if mi {
					cand[p.j] = true
				} else {
					cand[p.i] = true
				}
				done = false
			}
		}

		// Eliminate clusters that can never merge again: singletons
		// that are neither constraint-seeded nor merge candidates
		// (lines 20–22). Grown clusters are valid GAs already and are
		// always retained.
		next := born
		for i, c := range clusters {
			if merged[i] {
				continue // replaced by its union
			}
			if c.keep || c.grown || cand[i] {
				next = append(next, c)
			}
		}
		clusters = next
		if done {
			cfg.Stats.Add(trace.CClusterRounds, rounds)
			cfg.Stats.Add(trace.CClusterPops, pops)
			cfg.Stats.Add(trace.CClusterPairs, admitted)
			return clusters
		}
	}
}

// collectPairs returns every pair of clusters with similarity ≥ θ, sorted
// by similarity descending (deterministic tiebreak on indices).
func collectPairs(clusters []*workCluster, cfg Config) []pair {
	var pairs []pair
	if cfg.Neighbors != nil {
		pairs = collectPairsIndexed(clusters, cfg)
	} else {
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				s := clusterSim(clusters[i], clusters[j], cfg.Scores)
				if s >= cfg.Theta {
					pairs = append(pairs, pair{i, j, s})
				}
			}
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		//ube:float-exact sort comparators need a strict total order; an epsilon compare is not transitive
		case a.sim != b.sim:
			if a.sim > b.sim {
				return -1
			}
			return 1
		case a.i != b.i:
			return a.i - b.i
		default:
			return a.j - b.j
		}
	})
	return pairs
}

// collectPairsIndexed enumerates candidate pairs through the name
// adjacency index: only cluster pairs sharing an above-threshold name link
// are scored, which on realistic vocabularies is a tiny fraction of all
// pairs.
func collectPairsIndexed(clusters []*workCluster, cfg Config) []pair {
	owners := make([][]int, len(cfg.Neighbors)) // name ID -> clusters carrying it
	for ci, c := range clusters {
		for _, n := range c.names {
			owners[n] = append(owners[n], ci)
		}
	}
	// mark[j] == i+1 marks cluster j as already paired with cluster i,
	// deduplicating without a map. Only pairs with j > i are scored.
	mark := make([]int, len(clusters))
	var pairs []pair
	for i, c := range clusters {
		for _, na := range c.names {
			for _, nb := range cfg.Neighbors[na] {
				for _, j := range owners[nb] {
					if j <= i || mark[j] == i+1 {
						continue
					}
					mark[j] = i + 1
					s := clusterSim(c, clusters[j], cfg.Scores)
					if s >= cfg.Theta {
						pairs = append(pairs, pair{i, j, s})
					}
				}
			}
		}
	}
	return pairs
}

// clusterSim is the §3 cluster similarity: the maximum similarity between
// an attribute of a and an attribute of b. Similarity depends only on
// names, so it is computed over the deduplicated name sets.
func clusterSim(a, b *workCluster, sim strsim.Scorer) float64 {
	best := 0.0
	for _, na := range a.names {
		for _, nb := range b.names {
			if s := sim.Score(na, nb); s > best {
				best = s
				//ube:float-exact early exit only on the exact maximum score; a near-1 epsilon match must keep scanning
				if best == 1 {
					return 1
				}
			}
		}
	}
	return best
}

// disjointSources reports whether merging a and b yields a valid GA
// (no source contributes two attributes, Definition 1). Both source lists
// are sorted, so a single merge scan suffices.
func disjointSources(a, b *workCluster) bool {
	i, j := 0, 0
	for i < len(a.srcs) && j < len(b.srcs) {
		switch {
		case a.srcs[i] == b.srcs[j]:
			return false
		case a.srcs[i] < b.srcs[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// mergeInto fills c (slab-allocated) with the union of a and b, carving
// the union's slices out of the scratch pools. Handed-out pool regions are
// never written again — later appends extend past them (or move to a grown
// backing array, leaving old regions intact) — so earlier unions stay
// valid for the whole Match call.
func mergeInto(c, a, b *workCluster, sc *Scratch) {
	n := len(sc.attrs)
	sc.attrs = append(append(sc.attrs, a.attrs...), b.attrs...)
	c.attrs = sc.attrs[n:len(sc.attrs):len(sc.attrs)]
	n = len(sc.ints)
	sc.ints = appendMergedSorted(sc.ints, a.srcs, b.srcs)
	c.srcs = sc.ints[n:len(sc.ints):len(sc.ints)]
	n = len(sc.ints)
	sc.ints = appendMergedSorted(sc.ints, a.names, b.names)
	c.names = sc.ints[n:len(sc.ints):len(sc.ints)]
	c.keep = a.keep || b.keep
	c.grown = true
}

// appendMergedSorted appends the sorted union of two sorted int slices.
func appendMergedSorted(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// merge returns the union cluster of a and b.
func merge(a, b *workCluster) *workCluster {
	c := &workCluster{
		attrs: make([]model.AttrRef, 0, len(a.attrs)+len(b.attrs)),
		srcs:  mergeSorted(a.srcs, b.srcs),
		names: mergeSorted(a.names, b.names),
		keep:  a.keep || b.keep,
		grown: true,
	}
	c.attrs = append(c.attrs, a.attrs...)
	c.attrs = append(c.attrs, b.attrs...)
	return c
}

// mergeSorted returns the sorted union of two sorted int slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// quality is the §3 cluster quality: the maximum similarity between any
// two attributes of the cluster. A singleton has no pair and scores 0.
func quality(c *workCluster, sim strsim.Scorer) float64 {
	best := 0.0
	for i := 0; i < len(c.names); i++ {
		for j := i + 1; j < len(c.names); j++ {
			if s := sim.Score(c.names[i], c.names[j]); s > best {
				best = s
			}
		}
	}
	// Distinct attributes sharing one normalized name collapse to a
	// single name ID; any such duplicate is a perfect match.
	if len(c.attrs) > len(c.names) {
		best = 1
	}
	return best
}

// assemble applies the β filter, checks validity on C, and packages the
// result (Algorithm 1 line 24).
func assemble(clusters []*workCluster, C []int, G []model.GA, cfg Config) Result {
	return compose([]*Part{assemblePart(clusters, G, cfg)}, C)
}

// assemblePart applies the β filter to a run's final clusters and
// packages the surviving GAs in schema order.
func assemblePart(clusters []*workCluster, G []model.GA, cfg Config) *Part {
	p := &Part{}
	for _, c := range clusters {
		g := model.NewGA(c.attrs...)
		exempt := containsConstraint(g, G)
		if !exempt && len(g) < max(cfg.Beta, 2) {
			// Non-constraint GAs must express an actual matching
			// (≥ 2 attributes) and satisfy the user's β floor.
			continue
		}
		p.GAs = append(p.GAs, g)
		p.Quality = append(p.Quality, quality(c, cfg.Scores))
		p.FromConstraint = append(p.FromConstraint, exempt)
	}
	sortSchema(p)
	return p
}

// containsConstraint reports whether some user GA constraint is a subset
// of g (g grew out of it and inherits its exemption).
func containsConstraint(g model.GA, G []model.GA) bool {
	for _, c := range G {
		if g.ContainsAll(c) {
			return true
		}
	}
	return false
}

// sortSchema orders a part's GAs deterministically (by first attribute)
// so that equal inputs produce byte-identical results across runs.
func sortSchema(p *Part) {
	idx := make([]int, len(p.GAs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		// Distinct GAs never share a first attribute (an attribute
		// belongs to one cluster), so this is a strict total order and
		// stability is moot.
		return p.GAs[a][0].Compare(p.GAs[b][0])
	})
	gas := make([]model.GA, len(idx))
	qs := make([]float64, len(idx))
	fs := make([]bool, len(idx))
	for to, from := range idx {
		gas[to], qs[to], fs[to] = p.GAs[from], p.Quality[from], p.FromConstraint[from]
	}
	copy(p.GAs, gas)
	copy(p.Quality, qs)
	copy(p.FromConstraint, fs)
}

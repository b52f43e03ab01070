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
	"cmp"
	"fmt"
	"slices"

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
	// Stats, when non-nil, receives the clustering work counters (runs,
	// rounds, agenda pops, pairs admitted) for solve tracing. A pure
	// side channel: results never depend on it, and counts accumulate
	// locally per Match call and flush once, so the hot loops carry no
	// atomics. The counts describe the agenda's work: the Algorithm 1
	// transcription the tests hold Match to (algorithm1_test.go)
	// re-enumerates every pair every round and counts nothing.
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
	attrs []int32 // ascending slot positions (see Part)
	srcs  []int   // sorted source IDs (one attr per source in a valid GA)
	names []int   // sorted unique interned name IDs
	keep  bool    // seeded by a GA constraint: never eliminated
	grown bool    // created by a merge in some round

	// Agenda state (agenda.go). ord is a stable rank reproducing
	// Algorithm 1's list-position order, and the cluster's slot in the
	// run's arena, so a packed agenda entry decodes to its two clusters;
	// the rest is round status.
	ord      int32
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

	if cfg.Scores == nil {
		cfg.Scores = cfg.Sim
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.runs++
	clusters, refs := seed(u, S, G, cfg, sc)
	var seedQ []uint64
	preGathered := seedCompatible(cfg.Seed, S, G, cfg)
	if preGathered {
		seedQ = gatherSeed(u, S, cfg.Seed, sc.queue[:0])
	}
	clusters = runAgenda(clusters, seedQ, preGathered, cfg, sc)
	sc.flush(cfg.Stats)
	return compose([]*Part{assemblePart(clusters, cfg)}, func(_ int, pos int32) model.AttrRef { return refs[pos] }, C)
}

// seed builds the initial cluster list: one keep-cluster per GA constraint,
// then one singleton per remaining attribute of every source in S
// (Algorithm 1 lines 1–4). A slot's position is its index in the returned
// list of S's attributes, in S order.
func seed(u *model.Universe, S []int, G []model.GA, cfg Config, sc *Scratch) ([]*workCluster, []model.AttrRef) {
	intern := func(r model.AttrRef) int {
		if cfg.NameIDs != nil {
			return cfg.NameIDs[r.Source][r.Attr]
		}
		return cfg.Sim.Intern(u.AttrName(r))
	}

	var refs []model.AttrRef
	first := make([]int32, len(S)) // position of each source's first attribute
	for i, id := range S {
		first[i] = int32(len(refs))
		for a := range u.Source(id).Attributes {
			refs = append(refs, model.AttrRef{Source: id, Attr: a})
		}
	}
	checkSlots(len(refs))
	sc.reset(len(G)+len(refs), len(refs))
	clusters := sc.list[:0]
	taken := make([]bool, len(refs))
	for _, g := range G {
		clusters = append(clusters, sc.keepCluster(g, func(r model.AttrRef) (int32, int) {
			pos := first[slices.Index(S, r.Source)] + int32(r.Attr)
			taken[pos] = true
			return pos, intern(r)
		}))
	}
	for pos, r := range refs {
		if !taken[pos] {
			clusters = append(clusters, sc.singleton(int32(pos), r.Source, intern(r)))
		}
	}
	sc.list = clusters
	return clusters, refs
}

// addSorted inserts v into the ascending slice s unless it is there.
func addSorted[T int | int32](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
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
	sc.attrs = appendMergedSorted(sc.attrs, a.attrs, b.attrs)
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

// appendMergedSorted appends the sorted union of two sorted slices.
func appendMergedSorted[T int | int32](out, a, b []T) []T {
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

// assemblePart applies the β filter to a run's final clusters and
// packages the surviving GAs in schema order. A cluster holds a GA
// constraint iff it grew out of that constraint's keep cluster: the
// constraint's slots seed no singleton.
func assemblePart(clusters []*workCluster, cfg Config) *Part {
	kept, n := clusters[:0], 0
	for _, c := range clusters {
		// Non-constraint GAs must express an actual matching (≥ 2
		// attributes) and satisfy the user's β floor.
		if c.keep || len(c.attrs) >= max(cfg.Beta, 2) {
			kept = append(kept, c)
			n += len(c.attrs)
		}
	}
	// Distinct GAs never share a first position (a slot belongs to one
	// cluster), so this is a strict total order.
	slices.SortFunc(kept, func(a, b *workCluster) int { return cmp.Compare(a.attrs[0], b.attrs[0]) })
	p := &Part{
		GAs:            make([][]int32, len(kept)),
		Quality:        make([]float64, len(kept)),
		FromConstraint: make([]bool, len(kept)),
	}
	pos := make([]int32, 0, n)
	for j, c := range kept {
		pos = append(pos, c.attrs...)
		p.GAs[j] = pos[len(pos)-len(c.attrs) : len(pos) : len(pos)]
		p.Quality[j] = quality(c, cfg.Scores)
		p.FromConstraint[j] = c.keep
	}
	return p
}

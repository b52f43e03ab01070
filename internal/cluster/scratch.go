package cluster

import (
	"ube/internal/model"
	"ube/internal/trace"
)

// Scratch is Match's reusable working memory. The clustering loop is run
// thousands of times per solve on small, short-lived structures — seed
// clusters, their singleton attr/source/name slices, the agenda buffers —
// and allocating them fresh each call makes the allocator and GC a large
// share of solve time. A Scratch keeps the backing arrays alive across
// calls: sized once for the biggest Match seen, then reused with no
// per-call allocation beyond the assembled Result (which must be fresh —
// callers retain it).
//
// A Scratch must not be shared by concurrent Match calls. The engine keeps
// one per evaluation worker.
type Scratch struct {
	slab  []workCluster // every cluster of the current call
	attrs []int32       // backing for cluster position slices
	ints  []int         // backing for singleton source/name slices

	arena   []*workCluster   // agenda: ord -> cluster
	list    []*workCluster   // the evolving cluster list
	born    []*workCluster   // agenda: the list's ping-pong partner
	owners  [][]*workCluster // agenda: name ID -> clusters carrying it
	queue   []uint64         // agenda: carried pair run
	pending []uint64         // agenda: next round's carried run
	fresh   []uint64         // agenda: newborn pair run
	names   []int            // agenda: a run's distinct names (rankSims)
	sims    []float64        // agenda: a run's rank keys (rankSims)

	split Components // Split's result and working memory

	// Work counts of the agenda runs, and of the components Split
	// decided in closed form, since the last flush. A Match or
	// Components.Match call adds them to its Config.Stats once, not
	// per run: a solve makes tens of thousands of runs, and the
	// counters are atomics shared by every worker.
	runs, rounds, pops, pairs, closed int64
}

// flush adds the work counts gathered since the last flush to st.
func (s *Scratch) flush(st *trace.Stats) {
	st.Add(trace.CMatchRuns, s.runs)
	st.Add(trace.CClusterRounds, s.rounds)
	st.Add(trace.CClusterPops, s.pops)
	st.Add(trace.CClusterPairs, s.pairs)
	st.Add(trace.CClusterClosed, s.closed)
	s.runs, s.rounds, s.pops, s.pairs, s.closed = 0, 0, 0, 0, 0
}

// reset sizes the slabs for one run over up to seeds initial clusters, of
// which up to slots are singletons: room for every seed plus one cluster
// per possible merge, so agenda-held pointers into the slab stay valid
// without it ever reallocating mid-run.
func (s *Scratch) reset(seeds, slots int) {
	if cap(s.slab) < 2*seeds {
		s.slab = make([]workCluster, 0, 2*seeds+seeds/2)
	}
	s.slab = s.slab[:0]
	if cap(s.attrs) < slots {
		s.attrs = make([]int32, 0, slots+slots/4)
	}
	s.attrs = s.attrs[:0]
	if cap(s.ints) < 2*slots {
		s.ints = make([]int, 0, 2*slots+slots/2)
	}
	s.ints = s.ints[:0]
}

// keepCluster seeds the cluster of GA constraint g: never eliminated.
// slot gives an attribute's position and interned name.
func (s *Scratch) keepCluster(g model.GA, slot func(model.AttrRef) (int32, int)) *workCluster {
	c := s.newCluster()
	c.keep = true
	for _, r := range g {
		pos, name := slot(r)
		c.attrs = addSorted(c.attrs, pos)
		c.srcs = addSorted(c.srcs, r.Source)
		c.names = addSorted(c.names, name)
	}
	return c
}

// singleton seeds the one-attribute cluster of the slot at position pos,
// carving its tiny slices out of the scratch pools.
func (s *Scratch) singleton(pos int32, src, name int) *workCluster {
	c := s.newCluster()
	na := len(s.attrs)
	s.attrs = append(s.attrs, pos)
	c.attrs = s.attrs[na : na+1 : na+1]
	ni := len(s.ints)
	s.ints = append(s.ints, src, name)
	c.srcs = s.ints[ni : ni+1 : ni+1]
	c.names = s.ints[ni+1 : ni+2 : ni+2]
	return c
}

// newCluster hands out a zeroed cluster from the slab. reset sizes the
// slab for the worst case (every seed cluster plus one per possible
// merge), so the slab never reallocates mid-run — pointers into it stay
// valid for the whole Match call.
func (s *Scratch) newCluster() *workCluster {
	s.slab = s.slab[:len(s.slab)+1]
	c := &s.slab[len(s.slab)-1]
	*c = workCluster{}
	return c
}

package cluster

import "ube/internal/model"

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
	slab  []workCluster   // every cluster of the current call
	attrs []model.AttrRef // backing for singleton attr slices
	ints  []int           // backing for singleton source/name slices

	arena   []*workCluster   // agenda: cluster index -> cluster
	list    []*workCluster   // the evolving cluster list
	owners  [][]*workCluster // agenda: name ID -> clusters carrying it
	queue   []agendaEntry    // agenda: carried pair run
	pending []agendaEntry    // agenda: next round's carried run
	fresh   []agendaEntry    // agenda: newborn pair run
	spare   []agendaEntry    // agenda: radix ping-pong buffer
	counts  []int32          // agenda: radix histogram

	split Components // Split's result and working memory
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
		s.attrs = make([]model.AttrRef, 0, slots+slots/4)
	}
	s.attrs = s.attrs[:0]
	if cap(s.ints) < 2*slots {
		s.ints = make([]int, 0, 2*slots+slots/2)
	}
	s.ints = s.ints[:0]
}

// keepCluster seeds the cluster of GA constraint g: never eliminated.
func (s *Scratch) keepCluster(g model.GA, intern func(model.AttrRef) int) *workCluster {
	c := s.newCluster()
	c.keep = true
	for _, r := range g {
		c.attrs = append(c.attrs, r)
		addSource(c, r.Source)
		addName(c, intern(r))
	}
	return c
}

// singleton seeds the one-attribute cluster of slot r, carving its tiny
// slices out of the scratch pools.
func (s *Scratch) singleton(r model.AttrRef, name int) *workCluster {
	c := s.newCluster()
	na := len(s.attrs)
	s.attrs = append(s.attrs, r)
	c.attrs = s.attrs[na : na+1 : na+1]
	ni := len(s.ints)
	s.ints = append(s.ints, r.Source, name)
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

package engine

import (
	"sync"

	"ube/internal/cluster"
	"ube/internal/model"
	"ube/internal/trace"
)

// This file holds the solve's F1 path: Match(S) evaluated one θ-component
// at a time (see cluster.Split), with a per-solve memo of component
// results. Tabu moves add or drop a source or two, so most of a
// candidate's components were already clustered for an earlier candidate;
// only the components a move reshapes run Algorithm 1 again.

// componentMemoLimit bounds the per-solve component memo. A miss that
// finds it full first drops every finished entry: results never depend
// on the memo, only the time does.
const componentMemoLimit = 1 << 15

// matcher evaluates F1 for one solve. It is safe for concurrent use by
// the solve's evaluation workers.
type matcher struct {
	e    *Engine
	cfg  cluster.Config
	C    []int
	G    []model.GA
	memo *componentMemo // nil without memoization
}

// newMatcher builds the F1 path for one solve's clustering parameters.
func (e *Engine) newMatcher(cfg cluster.Config, C []int, G []model.GA) *matcher {
	m := &matcher{e: e, cfg: cfg, C: C, G: G}
	if !e.noMemo && !e.legacyEval {
		m.memo = newComponentMemo(e.memoLimit)
	}
	return m
}

// f1 returns S's matching quality and whether S is valid on C.
func (m *matcher) f1(S *model.SourceSet) (float64, bool) {
	if m.e.legacyEval {
		res := cluster.Match(m.e.u, S.Elements(), m.C, m.G, m.cfg)
		return res.Quality, res.Valid
	}
	ws := m.e.scratch.Get().(*evalScratch)
	q, valid := m.split(S, ws).F1(m.C)
	m.e.scratch.Put(ws)
	return q, valid
}

// result returns Match's full Result on S through the same path as f1.
func (m *matcher) result(S *model.SourceSet) cluster.Result {
	if m.e.legacyEval {
		return cluster.Match(m.e.u, S.Elements(), m.C, m.G, m.cfg)
	}
	ws := m.e.scratch.Get().(*evalScratch)
	res := m.split(S, ws).Result(m.C)
	m.e.scratch.Put(ws)
	return res
}

// split splits S into components and gives every component its Part:
// from the memo where it has one, else by clustering it.
func (m *matcher) split(S *model.SourceSet, ws *evalScratch) *cluster.Components {
	cfg := m.cfg
	cfg.Scratch = &ws.cluster
	ws.ids = S.AppendElements(ws.ids[:0])
	cs := cluster.Split(m.e.u, ws.ids, m.G, cfg)
	ws.missing, ws.waiting, ws.claimed, ws.waitOn = ws.missing[:0], ws.waiting[:0], ws.claimed[:0], ws.waitOn[:0]
	if m.memo == nil {
		for i := 0; i < cs.Len(); i++ {
			ws.missing = append(ws.missing, i)
		}
		cs.Match(ws.missing)
		return cs
	}
	m.memo.claim(cs, ws, cfg.Stats)
	cs.Match(ws.missing)
	m.memo.settle(cs, ws)
	return cs
}

// stats reports the memo's traffic over the solve so far.
func (m *matcher) stats() CacheStats {
	if m.memo == nil {
		return CacheStats{}
	}
	m.memo.mu.Lock()
	defer m.memo.mu.Unlock()
	return m.memo.stats
}

// evalScratch is one evaluation worker's reusable memory.
type evalScratch struct {
	cluster          cluster.Scratch
	ids              []int
	missing, waiting []int
	claimed, waitOn  []*memoEntry
}

// componentMemo maps component keys (cluster.Components.Key) to their
// Parts for one solve; the key is exact for the solve's fixed clustering
// parameters. A component is computed once: the first worker to miss on
// a key claims it, and any other worker that needs it meanwhile waits for
// the claimer to publish. So misses count distinct keys and hits the
// rest, whatever the number of workers, and every component's clustering
// work is counted exactly once, which keeps the trace counters
// deterministic. Only after the memo has overflowed do the counts depend
// on scheduling.
type componentMemo struct {
	mu      sync.Mutex
	ready   sync.Cond // signalled when claimed entries are published
	entries map[string]*memoEntry
	limit   int
	stats   CacheStats
}

// memoEntry is one memoized component; part is nil while its claimer is
// still clustering it.
type memoEntry struct {
	part *cluster.Part
}

func newComponentMemo(limit int) *componentMemo {
	if limit <= 0 {
		limit = componentMemoLimit
	}
	mm := &componentMemo{entries: make(map[string]*memoEntry), limit: limit}
	mm.ready.L = &mm.mu
	return mm
}

// claim looks up every component of cs: hits are installed, entries that
// another worker is still computing go to ws.waiting, and misses are
// claimed into ws.missing for this worker to compute.
func (mm *componentMemo) claim(cs *cluster.Components, ws *evalScratch, st *trace.Stats) {
	var hits, misses int64
	mm.mu.Lock()
	for i := 0; i < cs.Len(); i++ {
		key := cs.Key(i)
		if e, ok := mm.entries[string(key)]; ok {
			hits++
			if e.part != nil {
				cs.Set(i, e.part)
			} else {
				ws.waiting = append(ws.waiting, i)
				ws.waitOn = append(ws.waitOn, e)
			}
			continue
		}
		misses++
		if len(mm.entries) >= mm.limit {
			mm.evict(st)
		}
		e := &memoEntry{}
		mm.entries[string(key)] = e
		ws.missing = append(ws.missing, i)
		ws.claimed = append(ws.claimed, e)
	}
	mm.stats.Hits += hits
	mm.stats.Misses += misses
	mm.mu.Unlock()
	st.Add(trace.CMatchHits, hits)
	st.Add(trace.CMatchMisses, misses)
}

// evict drops every finished entry. Entries still being computed stay:
// their claimers publish into them and waiters hold them.
func (mm *componentMemo) evict(st *trace.Stats) {
	//ube:nondeterministic-ok each entry is kept or dropped on its own state; iteration order cannot matter
	for k, e := range mm.entries {
		if e.part != nil {
			delete(mm.entries, k)
			mm.stats.Evictions++
			st.Add(trace.OMatchEvictions, 1)
		}
	}
}

// settle publishes this worker's claimed components, then waits for the
// ones other workers claimed. Publishing first means no worker ever waits
// while holding an unpublished claim, so waits always end.
func (mm *componentMemo) settle(cs *cluster.Components, ws *evalScratch) {
	if len(ws.claimed) == 0 && len(ws.waiting) == 0 {
		return
	}
	mm.mu.Lock()
	for k, i := range ws.missing {
		ws.claimed[k].part = cs.Part(i)
	}
	if len(ws.claimed) > 0 {
		mm.ready.Broadcast()
	}
	for k, i := range ws.waiting {
		e := ws.waitOn[k]
		for e.part == nil {
			//ube:lock-held-ok Cond.Wait releases mu while it blocks
			mm.ready.Wait()
		}
		cs.Set(i, e.part)
	}
	mm.mu.Unlock()
	// Pooled scratch must not keep this solve's entries alive.
	clear(ws.claimed)
	clear(ws.waitOn)
}

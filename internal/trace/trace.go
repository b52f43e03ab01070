// Package trace is a span tracer for the solve hot path: the engine
// opens a root span per solve, each optimizer opens spans around its
// iteration structure, and the cluster/QEF/PCSA layers report work into
// deterministic payload counters. A trace therefore answers "which phase
// of which iteration burned the budget" the way the paper's Section 7
// experiments reason about cost — per phase, per iteration, per layer.
//
// The design splits every measurement into one of two classes:
//
//   - Counters (candidates evaluated, agenda pops, cache hits, sketch
//     unions) are deterministic: for a fixed (problem, seed, Workers)
//     they are byte-reproducible across runs, machines and -race, and
//     the determinism tests compare them exactly.
//   - Timings (span start offsets and durations) are operational only:
//     they come from the monotonic clock and never influence results.
//     Canonical strips them, along with the few counters whose values
//     depend on scheduling (snapshot rebuilds lost to publish races,
//     cache evictions), so canonical traces are byte-comparable.
//
// Tracing is strictly opt-in and zero-allocation when disabled: every
// method is a no-op on a nil *Tracer or nil *Stats, so the hot path
// carries only nil checks when no tracer is installed.
//
// Spans are created only on sequential control paths (the engine solve
// stages and the optimizers' iteration loops, which run between
// parallel evaluation batches). Parallel workers contribute through
// atomic counter increments only, so the span tree shape is always
// deterministic and counter snapshots at span boundaries observe
// quiescent totals.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Counter identifies one payload counter. The deterministic counters
// come first; Operational reports the split.
type Counter uint8

const (
	// CSearchEvals counts objective evaluations (equals Solution.Evals).
	CSearchEvals Counter = iota
	// CSearchBatches counts parallel candidate-evaluation batches.
	CSearchBatches
	// CMatchRuns counts Algorithm 1 runs: one per θ-component clustered
	// (a component memo miss), one per whole-set Match call.
	CMatchRuns
	// CMatchHits counts component memo hits.
	CMatchHits
	// CMatchMisses counts component memo misses: the distinct components
	// a solve clusters.
	CMatchMisses
	// CClusterRounds counts agenda rounds across clustering runs.
	CClusterRounds
	// CClusterPops counts agenda entries examined (pops off the merged
	// carry-over/fresh stream).
	CClusterPops
	// CClusterPairs counts candidate pairs scored at or above θ and
	// admitted to the agenda.
	CClusterPairs
	// CQEFDelta counts incremental QEF evaluations (DeltaEval.EvalAdd).
	CQEFDelta
	// CQEFFull counts full composite QEF evaluations — the objective's
	// non-match term and the delta evaluator's fallback path. Each full
	// evaluation implies up to two full-path PCSA union sweeps
	// (coverage and redundancy), which are not counted separately: the
	// shared qef.Context has no per-solve identity to attribute them to.
	CQEFFull
	// CSketchUnions counts incremental-path PCSA union batches: one per
	// cooperative EvalAdd (scratch copy + union + estimate).
	CSketchUnions
	// CBlockProbes counts blocking-index probes: one per name whose
	// candidate list is generated from the inverted index.
	CBlockProbes
	// CBlockCandidates counts candidate pairs surfaced by the blocking
	// index before exact verification (the sparse analogue of the dense
	// path's n² comparisons).
	CBlockCandidates
	// CBlockPruned counts candidate pairs discarded by exact
	// verification (index said "plausible", the measure scored < θ).
	CBlockPruned
	// CBoundSkips counts solver candidates whose exact objective
	// evaluation was skipped because an upper bound could not beat the
	// incumbent. Each skip still counts as one CSearchEvals.
	CBoundSkips

	// Operational counters below this point depend on scheduling and
	// are stripped by Canonical.

	// OSnapshotBuilds counts incumbent base-snapshot builds. Under
	// Workers>1 concurrent workers can build the same snapshot and lose
	// the publish race, so the count is load-dependent.
	OSnapshotBuilds
	// OSnapshotUnions counts per-member PCSA unions performed while
	// building base snapshots.
	OSnapshotUnions
	// OMatchEvictions counts component memo evictions (finished entries
	// dropped when the per-solve memo reaches its bound).
	OMatchEvictions

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	CSearchEvals:     "search.evals",
	CSearchBatches:   "search.batches",
	CMatchRuns:       "match.runs",
	CMatchHits:       "match.hits",
	CMatchMisses:     "match.misses",
	CClusterRounds:   "cluster.rounds",
	CClusterPops:     "cluster.pops",
	CClusterPairs:    "cluster.pairs",
	CQEFDelta:        "qef.delta",
	CQEFFull:         "qef.full",
	CSketchUnions:    "pcsa.unions",
	CBlockProbes:     "block.probes",
	CBlockCandidates: "block.candidates",
	CBlockPruned:     "block.pruned",
	CBoundSkips:      "bound.skips",
	OSnapshotBuilds:  "qef.snapshots",
	OSnapshotUnions:  "pcsa.snapshotUnions",
	OMatchEvictions:  "match.evictions",
}

var counterIndex = func() map[string]Counter {
	m := make(map[string]Counter, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		m[counterNames[c]] = c
	}
	return m
}()

// Name returns the counter's stable wire name.
func (c Counter) Name() string {
	if c >= NumCounters {
		return "invalid"
	}
	return counterNames[c]
}

// Operational reports whether the counter's value depends on scheduling
// (and is therefore stripped by Canonical).
func (c Counter) Operational() bool { return c >= OSnapshotBuilds && c < NumCounters }

// CounterByName resolves a wire name back to its counter.
func CounterByName(name string) (Counter, bool) {
	c, ok := counterIndex[name]
	return c, ok
}

// Counts is a plain snapshot of every counter.
type Counts [NumCounters]int64

// Map renders the nonzero counters as a name→value map (the JSONL wire
// form; encoding/json emits map keys sorted, so the bytes are stable).
func (c *Counts) Map() map[string]int64 {
	var n int
	for i := range c {
		if c[i] != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := range c {
		if c[i] != 0 {
			m[Counter(i).Name()] = c[i]
		}
	}
	return m
}

// Stats is the concurrent counter block a Tracer exposes to the layers
// below it. Add is safe from parallel evaluation workers and a no-op on
// a nil receiver, so instrumented code needs no tracer-enabled branch.
type Stats struct {
	c [NumCounters]atomic.Int64
}

// Add increments counter c by n. Nil-safe and zero-allocation.
func (s *Stats) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.c[c].Add(n)
}

// read snapshots every counter into out.
func (s *Stats) read(out *Counts) {
	for i := range s.c {
		out[i] = s.c[i].Load()
	}
}

// Span is one closed interval of the solve. Counts are the counter
// deltas observed between Begin and End, children included; Aggregate
// derives self values by subtracting direct children.
type Span struct {
	ID     int32
	Parent int32 // -1 for a root span
	Name   string
	//ube:operational span timings are stripped by Canonical and never byte-compared
	Start int64 // ns since the tracer's first Begin; operational only
	//ube:operational span timings are stripped by Canonical and never byte-compared
	Dur    int64 // ns; operational only
	Counts Counts
}

// Trace is a finished span tree plus the tracer's drop count.
type Trace struct {
	Label   string
	Spans   []Span
	Dropped int64 // spans not recorded because MaxSpans was reached
}

// Canonical returns a copy with every timing zeroed and every
// operational counter stripped. Two solves of the same (problem, seed,
// Workers) produce byte-identical canonical traces; the determinism
// tests compare exactly that.
func (tr *Trace) Canonical() *Trace {
	if tr == nil {
		return nil
	}
	out := &Trace{Label: tr.Label, Spans: append([]Span(nil), tr.Spans...), Dropped: tr.Dropped}
	for i := range out.Spans {
		sp := &out.Spans[i]
		sp.Start, sp.Dur = 0, 0
		for c := Counter(0); c < NumCounters; c++ {
			if c.Operational() {
				sp.Counts[c] = 0
			}
		}
	}
	return out
}

// Totals sums the counter deltas of the root spans (every increment is
// covered by some root, so this is the whole solve's total).
func (tr *Trace) Totals() Counts {
	var t Counts
	if tr == nil {
		return t
	}
	for i := range tr.Spans {
		if tr.Spans[i].Parent != -1 {
			continue
		}
		for c := range t {
			t[c] += tr.Spans[i].Counts[c]
		}
	}
	return t
}

// DefaultMaxSpans bounds a trace when the tracer does not override it:
// past the cap new spans are dropped (and counted) rather than grown,
// so a runaway solve cannot balloon a session's memory.
const DefaultMaxSpans = 16384

// Tracer records one solve's span tree. It is not safe for concurrent
// Begin/End (spans are only opened from the solve's sequential control
// path); Stats is the concurrent part. The zero value is ready to use,
// and all methods are no-ops on a nil receiver.
type Tracer struct {
	// MaxSpans caps the recorded spans; 0 means DefaultMaxSpans.
	MaxSpans int
	// Label annotates the finished trace (e.g. "session s1 iter 3").
	Label string

	stats   Stats
	spans   []Span
	stack   []int32 // open span IDs, root first
	marks   []Counts
	started bool
	start   time.Time
	dropped int64
}

// New returns an empty tracer with default limits.
func New() *Tracer { return &Tracer{} }

// Stats returns the tracer's counter block (nil when the tracer is nil,
// which every Stats method tolerates).
func (t *Tracer) Stats() *Stats {
	if t == nil {
		return nil
	}
	return &t.stats
}

func (t *Tracer) cap() int {
	if t.MaxSpans > 0 {
		return t.MaxSpans
	}
	return DefaultMaxSpans
}

// Begin opens a span named name under the innermost open span and
// returns its ID, or -1 when disabled or over the span cap. The
// returned ID is passed to End; -1 is always safe to End.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	if !t.started {
		t.started = true
		//ube:nondeterministic-ok span timings are operational-only and stripped by Canonical
		t.start = time.Now()
	}
	if len(t.spans) >= t.cap() {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	var mark Counts
	t.stats.read(&mark)
	//ube:nondeterministic-ok span timings are operational-only and stripped by Canonical
	now := time.Since(t.start).Nanoseconds()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now})
	t.stack = append(t.stack, id)
	t.marks = append(t.marks, mark)
	return int(id)
}

// End closes the span with the given ID, first closing any still-open
// descendants, so callers may End an outer span on an early return
// without unwinding inner ones. Ending -1 or an already-closed span is
// a no-op.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	want := int32(id)
	onStack := false
	for _, s := range t.stack {
		if s == want {
			onStack = true
			break
		}
	}
	if !onStack {
		return
	}
	//ube:nondeterministic-ok span timings are operational-only and stripped by Canonical
	now := time.Since(t.start).Nanoseconds()
	var cur Counts
	t.stats.read(&cur)
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		sp := &t.spans[top]
		sp.Dur = now - sp.Start
		mark := &t.marks[len(t.marks)-1]
		for i := range cur {
			sp.Counts[i] = cur[i] - mark[i]
		}
		t.stack = t.stack[:len(t.stack)-1]
		t.marks = t.marks[:len(t.marks)-1]
		if top == want {
			return
		}
	}
}

// Finish closes any spans still open and returns the finished trace.
// Nil-safe (returns nil). The tracer is single-solve: reusing it after
// Finish appends to the same tree.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	if len(t.stack) > 0 {
		t.End(int(t.stack[0]))
	}
	return &Trace{Label: t.Label, Spans: append([]Span(nil), t.spans...), Dropped: t.dropped}
}

// CounterNames returns every counter's wire name in counter order.
func CounterNames() []string {
	out := make([]string, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		out[c] = c.Name()
	}
	return out
}

// SortedNonzero returns the nonzero counters of c sorted by wire name —
// the deterministic rendering order used by the attribution table.
func (c *Counts) SortedNonzero() []Counter {
	var out []Counter
	for i := range c {
		if c[i] != 0 {
			out = append(out, Counter(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

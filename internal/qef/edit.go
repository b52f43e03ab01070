package qef

import (
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// Base is the evaluation state of one base set, from which EvalEdit scores
// any edit of it — one source dropped, one added, or both — without
// visiting the base's members again. A solver's inner loop derives most
// candidates by editing one incumbent set, so the per-set work of the data
// QEFs is done once per base: the integer sums behind Card and Redundancy,
// and the any/multi bitmaps (pcsa.Population) that give the union
// estimate of every edit in one pass over the bitmaps instead of |S| ORs.
//
// A Base is immutable once NewBase returns, so concurrent solver workers
// may share one.
type Base struct {
	set      *model.SourceSet // private copy of the base's membership
	cardSum  int64            // Σ cardinality over all members
	coopN    int              // cooperative members
	coopCard int64            // Σ cardinality over cooperative members
	pop      pcsa.Population  // the cooperative members' signatures
	stats    *trace.Stats

	// debugSum is the checksum of the base's state at capture time, set
	// only under the ubedebug build tag; EvalEdit re-derives it to catch
	// mutation of the contractually frozen state.
	debugSum uint64
}

// NewBase captures set's evaluation state in one pass over its members.
// st, when non-nil, receives the work counters for solve tracing: base
// builds and the member signatures folded into them are operational
// counts (how often a caller's cache rebuilds a base is its own policy),
// while EvalEdit's edit evaluations and union estimates are
// deterministic.
func NewBase(ctx *Context, set *model.SourceSet, st *trace.Stats) *Base {
	st.Add(trace.OSnapshotBuilds, 1)
	b := &Base{set: set.Clone(), stats: st}
	set.ForEach(func(id int) {
		src := &ctx.U.Sources[id]
		b.cardSum += src.Cardinality
		if src.Signature == nil {
			return
		}
		b.coopN++
		b.coopCard += src.Cardinality
		// Signature compatibility was checked by Universe.Validate.
		if err := b.pop.Add(src.Signature); err != nil {
			panic(err)
		}
	})
	st.Add(trace.OSnapshotUnions, int64(b.coopN))
	if ubedebug.Enabled {
		b.debugSum = b.checksum()
	}
	return b
}

// Of reports whether b is the state of set, by exact membership
// comparison.
func (b *Base) Of(set *model.SourceSet) bool { return b.set.Equal(set) }

// checksum folds the base's state. Only called under the ubedebug build
// tag.
func (b *Base) checksum() uint64 {
	h := debugMix(uint64(b.cardSum))
	h = debugMix(h ^ uint64(b.coopN))
	h = debugMix(h ^ uint64(b.coopCard))
	h = debugMix(h ^ b.pop.Checksum())
	b.set.ForEach(func(id int) { h = debugMix(h ^ uint64(id)) })
	return h
}

// debugMix is the splitmix64 finalizer (Vigna), used only to fold base
// state into debugSum.
func debugMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// EvalEdit returns the composite quality of S = base − drop + add, where
// b was captured on base, drop (or -1 for none) is a member of base and
// add (or -1 for none) is not. S must be the materialized candidate:
// QEFs other than Card, Coverage and Redundancy are evaluated on it in
// full. The data QEFs' stats are base ± edit — integer sums and the
// population's edit union, which is bit-identical to the union of S's
// signatures — and the fold is Eval's, so the result is bit-identical to
// c.Eval(ctx, S).
func (c *Composite) EvalEdit(ctx *Context, b *Base, drop, add int, S *model.SourceSet) float64 {
	if ubedebug.Enabled {
		ubedebug.Assert(b.debugSum == b.checksum(),
			"qef: base state for %v mutated since capture", b.set.Elements())
	}
	b.stats.Add(trace.CQEFDelta, 1)
	st := setStats{cardSum: b.cardSum, coopN: b.coopN, coopCard: b.coopCard}
	var dropSig, addSig *pcsa.Sketch
	if drop >= 0 {
		src := &ctx.U.Sources[drop]
		st.cardSum -= src.Cardinality
		if dropSig = src.Signature; dropSig != nil {
			st.coopN--
			st.coopCard -= src.Cardinality
		}
	}
	if add >= 0 {
		src := &ctx.U.Sources[add]
		st.cardSum += src.Cardinality
		if addSig = src.Signature; addSig != nil {
			st.coopN++
			st.coopCard += src.Cardinality
		}
	}
	if c.union && st.coopN > 0 {
		b.stats.Add(trace.CSketchUnions, 1)
		d, err := b.pop.EditEstimate(dropSig, addSig)
		if err != nil {
			panic(err) // drop is a member and compatibility was validated
		}
		st.distinct = d
	}
	return c.fold(ctx, st, S)
}

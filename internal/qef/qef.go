// Package qef implements µBE's quality evaluation functions (paper §2.3,
// §4, §5). A QEF maps a candidate set of sources S to a quality score in
// [0,1]; the overall quality of S is the weighted sum of all QEFs, with
// user-chosen weights that sum to 1.
//
// The data-dependent QEFs — Card, Coverage and Redundancy — need the
// cardinalities of unions of sources, which µBE estimates from cached PCSA
// signatures without ever touching source data (§4): the bitwise OR of the
// per-source signatures is the signature of the union.
package qef

import (
	"math"
	"sync"

	"ube/internal/floats"
	"ube/internal/model"
	"ube/internal/pcsa"
)

// A QEF evaluates the aggregate quality of a set of sources on one quality
// dimension. Implementations must return values in [0,1], higher is better.
type QEF interface {
	// Name identifies the QEF, e.g. "card" or "mttf"; weights are keyed
	// by this name.
	Name() string
	// Eval scores the source set S within the given universe context.
	Eval(ctx *Context, S *model.SourceSet) float64
}

// Context carries the per-universe precomputed state shared by all QEF
// evaluations: total cardinality, the distinct-count estimate for the whole
// universe, characteristic ranges, and a scratch sketch for unions.
type Context struct {
	U *model.Universe

	totalCard int64
	// universeDistinct estimates |∪_{t∈U} t| over cooperative sources.
	universeDistinct float64
	// charRange caches [min,max] of each characteristic across U.
	charRange map[string][2]float64
	// nanChars counts the NaN characteristic values in U. A NaN held by
	// a name's first source pins its range at NaN, so Rebase folds
	// ranges incrementally only while there are none.
	nanChars int
	// scratch pools union sketches so concurrent Eval calls (parallel
	// solvers fan candidate evaluations across cores) don't allocate
	// one per estimate. Nil when no source cooperates.
	scratch *sync.Pool
	// proto is the scratch pool's prototype: U's first cooperative
	// signature when the pool was made.
	proto *pcsa.Sketch
}

// NewContext validates the universe and precomputes shared state.
func NewContext(u *model.Universe) (*Context, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	ctx := &Context{U: u, totalCard: u.TotalCardinality()}
	ctx.useScratch(firstSignature(u))
	ctx.scanRanges()
	ctx.universeDistinct = ctx.distinctAll(nil)
	return ctx, nil
}

// firstSignature returns the first cooperative source's signature, nil
// when no source cooperates.
func firstSignature(u *model.Universe) *pcsa.Sketch {
	for i := range u.Sources {
		if sg := u.Sources[i].Signature; sg != nil {
			return sg
		}
	}
	return nil
}

// useScratch points the scratch pool at proto, nil when no source
// cooperates. A pool whose prototype has proto's parameters is kept: its
// sketches are reset clones, so they depend on nothing else.
func (ctx *Context) useScratch(proto *pcsa.Sketch) {
	switch {
	case proto == nil:
		ctx.scratch, ctx.proto = nil, nil
	case ctx.proto != nil && ctx.proto.Compatible(proto):
	default:
		ctx.scratch = &sync.Pool{New: func() any {
			sk := proto.Clone()
			sk.Reset()
			return sk
		}}
		ctx.proto = proto
	}
}

// scanRanges rebuilds every characteristic range and the NaN count from
// all of U.
func (ctx *Context) scanRanges() {
	ctx.charRange = make(map[string][2]float64)
	ctx.nanChars = 0
	for i := range ctx.U.Sources {
		// Names fold independently, so visiting one source's
		// characteristics in map order cannot change the ranges.
		//ube:nondeterministic-ok per-key min/max fold is order-independent
		for name, v := range ctx.U.Sources[i].Characteristics {
			if math.IsNaN(v) {
				ctx.nanChars++
			}
			ctx.widen(name, v)
		}
	}
}

// widen folds v into name's range as a scan in source order does: a
// bound moves only when v is strictly beyond it, so the first source to
// hold an extreme value sets its bits.
func (ctx *Context) widen(name string, v float64) {
	r, ok := ctx.charRange[name]
	if !ok {
		ctx.charRange[name] = [2]float64{v, v}
		return
	}
	if v < r[0] {
		r[0] = v
	}
	if v > r[1] {
		r[1] = v
	}
	ctx.charRange[name] = r
}

// distinctAll is the universe-distinct estimate: 0 when no source
// cooperates, union's estimate when the caller maintains the cooperative
// union, else the estimate of a fresh union over every source.
func (ctx *Context) distinctAll(union *pcsa.Sketch) float64 {
	switch {
	case ctx.scratch == nil:
		return 0
	case union != nil:
		return union.Estimate()
	}
	all := model.NewSourceSet(ctx.U.N())
	for i := range ctx.U.Sources {
		all.Add(i)
	}
	return ctx.stats(all, true).distinct
}

// TotalCardinality returns Σ_{t∈U}|t|.
func (ctx *Context) TotalCardinality() int64 { return ctx.totalCard }

// UniverseDistinct returns the PCSA estimate of the number of distinct
// tuples across all cooperative sources, or 0 when no source cooperates.
func (ctx *Context) UniverseDistinct() float64 { return ctx.universeDistinct }

// CharRange returns the [min,max] range of a characteristic across the
// universe and whether any source defines it.
func (ctx *Context) CharRange(name string) (lo, hi float64, ok bool) {
	r, ok := ctx.charRange[name]
	return r[0], r[1], ok
}

// setStats are the per-set sums the data QEFs read: Card reads the
// cardinality sum, Redundancy the cooperative count and cardinality, and
// Coverage and Redundancy share one union estimate.
type setStats struct {
	cardSum  int64   // Σ cardinality over all members
	coopN    int     // cooperative members
	coopCard int64   // Σ cardinality over cooperative members
	distinct float64 // PCSA estimate of the cooperative members' union
}

// stats gathers S's setStats in one pass over its members, ORing the
// cooperative signatures into a pooled scratch sketch when union is set.
// The union of no cooperative source estimates to 0.
func (ctx *Context) stats(S *model.SourceSet, union bool) setStats {
	var st setStats
	var sk *pcsa.Sketch
	if union && ctx.scratch != nil {
		sk = ctx.scratch.Get().(*pcsa.Sketch)
		defer func() {
			sk.Reset()
			ctx.scratch.Put(sk)
		}()
	}
	S.ForEach(func(id int) {
		src := &ctx.U.Sources[id]
		st.cardSum += src.Cardinality
		if src.Signature == nil {
			return
		}
		st.coopN++
		st.coopCard += src.Cardinality
		if sk != nil {
			// Signature compatibility was checked by Universe.Validate.
			if err := sk.UnionInto(src.Signature); err != nil {
				panic(err)
			}
		}
	})
	if sk != nil && st.coopN > 0 {
		st.distinct = sk.Estimate()
	}
	return st
}

// card is Card on the stats.
func (st setStats) card(ctx *Context) float64 {
	if ctx.totalCard == 0 {
		return 0
	}
	return float64(st.cardSum) / float64(ctx.totalCard)
}

// coverage is Coverage on the stats.
func (st setStats) coverage(ctx *Context) float64 {
	if floats.Zero(ctx.universeDistinct) {
		return 0
	}
	// Estimation noise can push the ratio a hair past 1.
	return min(st.distinct/ctx.universeDistinct, 1)
}

// redundancy is Redundancy on the stats.
func (st setStats) redundancy() float64 {
	k := st.coopN
	if k == 0 {
		return 0
	}
	if k == 1 {
		return 1
	}
	if st.coopCard == 0 {
		return 1 // no data, no overlap
	}
	r := (float64(k)*st.distinct/float64(st.coopCard) - 1) / float64(k-1)
	// PCSA noise can push the ratio slightly outside [0,1].
	return max(0, min(r, 1))
}

// Card is F2 (§4): Card(S) = Σ_{s∈S}|s| / Σ_{t∈U}|t|, the fraction of the
// universe's total data volume that S provides.
type Card struct{}

// Name implements QEF.
func (Card) Name() string { return "card" }

// Eval implements QEF.
func (Card) Eval(ctx *Context, S *model.SourceSet) float64 {
	return ctx.stats(S, false).card(ctx)
}

// Coverage is F3 (§4): the fraction of the universe's distinct tuples that
// S provides, |∪_{s∈S}s| / |∪_{t∈U}t|, estimated via PCSA signatures.
// Uncooperative sources contribute nothing to either union (§4).
type Coverage struct{}

// Name implements QEF.
func (Coverage) Name() string { return "coverage" }

// Eval implements QEF.
func (Coverage) Eval(ctx *Context, S *model.SourceSet) float64 {
	return ctx.stats(S, true).coverage(ctx)
}

// Redundancy is F4 (§4): a measure of the overlap among the sources of S,
// oriented so that 1 is best (pairwise disjoint sources) and 0 is worst
// (all sources hold the same data):
//
//	Redundancy(S) = (k·|∪S| / Σ_{s∈S}|s| − 1) / (k − 1)
//
// over the k cooperative sources of S. With k ≤ 1 no overlap is possible
// and the score is 1 if S has a cooperative source, else 0 (§4 assigns
// uncooperative sources zero redundancy quality).
type Redundancy struct{}

// Name implements QEF.
func (Redundancy) Name() string { return "redundancy" }

// Eval implements QEF.
func (Redundancy) Eval(ctx *Context, S *model.SourceSet) float64 {
	return ctx.stats(S, true).redundancy()
}

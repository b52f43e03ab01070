package qef

import (
	"fmt"
	"math"

	"ube/internal/model"
	"ube/internal/pcsa"
)

// A Delta is what one batch of in-place edits (source churn) changed in
// a Context's universe. Every source the batch did not list keeps its
// value and its order relative to the others.
type Delta struct {
	// Gone holds, as they stood before the batch, the sources the batch
	// removed or overwrote.
	Gone []model.Source
	// Fresh lists, ascending, the post-batch IDs of the sources the
	// batch added or overwrote.
	Fresh []int
}

// Rebase folds a batch's delta into the context after its universe was
// mutated in place, in time proportional to the batch rather than the
// universe:
//   - the total cardinality subtracts the gone sources and adds the
//     fresh ones, which is exact in integer arithmetic;
//   - fresh characteristic values widen their names' ranges. A name is
//     rescanned over the universe instead when a gone value sits at one
//     of its bounds, when a fresh value is NaN, or when a fresh zero ties
//     a zero bound, since +0 and −0 compare equal and the first source
//     in order sets the bits. When the universe held a NaN value before
//     the batch, every range is rescanned;
//   - the scratch pool is kept unless the first cooperative signature's
//     parameters changed, which a full cooperative turnover can do;
//   - the universe-distinct estimate is taken from the supplied union
//     signature when the caller maintains one incrementally (the
//     engine's pcsa.UnionCounter), or rescanned when union is nil.
//
// Rebase checks each fresh source with model.Source.Check against the
// first cooperative signature, and refuses an invalid one before
// changing anything; it trusts the delta for the rest of the universe.
// A rebased context is bit-identical to NewContext on the mutated
// universe (DESIGN.md §16 gives the argument).
func (ctx *Context) Rebase(d Delta, union *pcsa.Sketch) error {
	u := ctx.U
	proto := firstSignature(u)
	for k, id := range d.Fresh {
		if id < 0 || id >= u.N() || k > 0 && id <= d.Fresh[k-1] {
			return fmt.Errorf("qef: rebase delta lists fresh source %d out of order or outside [0,%d)", id, u.N())
		}
		if err := u.Sources[id].Check(id, proto, nil); err != nil {
			return err
		}
	}
	for i := range d.Gone {
		ctx.totalCard -= d.Gone[i].Cardinality
	}
	for _, id := range d.Fresh {
		ctx.totalCard += u.Sources[id].Cardinality
	}
	if ctx.nanChars > 0 {
		ctx.scanRanges()
	} else {
		ctx.foldRanges(d)
	}
	ctx.useScratch(proto)
	ctx.universeDistinct = ctx.distinctAll(union)
	return nil
}

// foldRanges is Rebase's range update for a universe that held no NaN
// value before the batch, so gone values hold none either.
func (ctx *Context) foldRanges(d Delta) {
	var dirty map[string]bool
	mark := func(name string) {
		if dirty == nil {
			dirty = make(map[string]bool)
		}
		dirty[name] = true
	}
	// Gone values are checked against the pre-batch ranges first: one
	// strictly inside its range leaves a source holding each bound.
	for i := range d.Gone {
		//ube:nondeterministic-ok each name is marked independently
		for name, v := range d.Gone[i].Characteristics {
			//ube:float-exact a bound is rescanned exactly when a gone value may have set it
			if r, ok := ctx.charRange[name]; !ok || v == r[0] || v == r[1] {
				mark(name)
			}
		}
	}
	for _, id := range d.Fresh {
		//ube:nondeterministic-ok names widen independently, and fresh sources in ascending ID order
		for name, v := range ctx.U.Sources[id].Characteristics {
			if dirty[name] {
				continue
			}
			r, ok := ctx.charRange[name]
			//ube:float-exact zero is the one value whose equal operands can differ in bits
			if math.IsNaN(v) || ok && v == 0 && (r[0] == 0 || r[1] == 0) {
				mark(name)
				continue
			}
			ctx.widen(name, v)
		}
	}
	//ube:nondeterministic-ok each name is rescanned independently
	for name := range dirty {
		ctx.rescan(name)
	}
}

// rescan recomputes one name's range, and its share of the NaN count,
// over the whole universe in source order, exactly as scanRanges does.
// A name no source holds any more loses its range.
func (ctx *Context) rescan(name string) {
	delete(ctx.charRange, name)
	for i := range ctx.U.Sources {
		if v, ok := ctx.U.Sources[i].Characteristics[name]; ok {
			if math.IsNaN(v) {
				ctx.nanChars++
			}
			ctx.widen(name, v)
		}
	}
}

// Diff reports the first precomputed field in which ctx differs from o,
// or "" when the two agree bit for bit. Scratch pools are compared by
// their prototypes' parameters, the only thing their sketches depend on.
func (ctx *Context) Diff(o *Context) string {
	if ctx.totalCard != o.totalCard {
		return fmt.Sprintf("totalCard %d, want %d", ctx.totalCard, o.totalCard)
	}
	if math.Float64bits(ctx.universeDistinct) != math.Float64bits(o.universeDistinct) {
		return fmt.Sprintf("universeDistinct %v, want %v", ctx.universeDistinct, o.universeDistinct)
	}
	if ctx.nanChars != o.nanChars {
		return fmt.Sprintf("nanChars %d, want %d", ctx.nanChars, o.nanChars)
	}
	if len(ctx.charRange) != len(o.charRange) {
		return fmt.Sprintf("charRange %v, want %v", ctx.charRange, o.charRange)
	}
	//ube:nondeterministic-ok every key is compared; only the first mismatch found is reported
	for name, r := range o.charRange {
		g, ok := ctx.charRange[name]
		if !ok || math.Float64bits(g[0]) != math.Float64bits(r[0]) || math.Float64bits(g[1]) != math.Float64bits(r[1]) {
			return fmt.Sprintf("charRange[%q] %v (present %v), want %v", name, g, ok, r)
		}
	}
	if (ctx.scratch == nil) != (o.scratch == nil) {
		return fmt.Sprintf("scratch nil-ness %v, want %v", ctx.scratch == nil, o.scratch == nil)
	}
	if ctx.scratch != nil {
		g := ctx.scratch.New().(*pcsa.Sketch)
		w := o.scratch.New().(*pcsa.Sketch)
		if g.NumMaps() != w.NumMaps() || g.Seed() != w.Seed() {
			return fmt.Sprintf("scratch prototype (%d,%d), want (%d,%d)", g.NumMaps(), g.Seed(), w.NumMaps(), w.Seed())
		}
	}
	return ""
}

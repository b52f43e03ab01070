package qef

import (
	"ube/internal/floats"
	"ube/internal/model"
)

// An Aggregator folds the per-source values of one characteristic over a
// source set into a score in [0,1] (paper §5). Characteristic values are
// positive reals of any magnitude; aggregators normalize against the
// universe-wide [min,max] range.
type Aggregator interface {
	// Name identifies the aggregation function, e.g. "wsum".
	Name() string
	// Aggregate scores characteristic char over S.
	Aggregate(ctx *Context, S *model.SourceSet, char string) float64
}

// value returns source id's characteristic, defaulting to the universe
// minimum when the source does not define it — a missing value earns the
// worst normalized score rather than an error, so heterogeneous universes
// still evaluate.
func value(ctx *Context, id int, char string, lo float64) float64 {
	if v, ok := ctx.U.Sources[id].Characteristic(char); ok {
		return v
	}
	return lo
}

// WSum is the paper's weighted-sum aggregation (§5):
//
//	wsum(S) = Σ_{s∈S}((q_s − min_U q)·|s|) / (Σ_{s∈S}|s| · (max_U q − min_U q))
//
// Each source's normalized characteristic is weighted by its cardinality: a
// highly available source with many tuples is worth more than a highly
// available source with few.
type WSum struct{}

// Name implements Aggregator.
func (WSum) Name() string { return "wsum" }

// Aggregate implements Aggregator.
func (WSum) Aggregate(ctx *Context, S *model.SourceSet, char string) float64 {
	lo, hi, ok := ctx.CharRange(char)
	if !ok || S.Len() == 0 {
		return 0
	}
	if floats.Eq(hi, lo) {
		// Every source is equally good on this dimension; no set can
		// beat another, so score full marks.
		return 1
	}
	var num, den float64
	S.ForEach(func(id int) {
		card := float64(ctx.U.Sources[id].Cardinality)
		num += (value(ctx, id, char, lo) - lo) * card
		den += card
	})
	if floats.Zero(den) {
		return 0
	}
	return num / (den * (hi - lo))
}

// Mean is the unweighted normalized mean of the characteristic over S.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (Mean) Aggregate(ctx *Context, S *model.SourceSet, char string) float64 {
	lo, hi, ok := ctx.CharRange(char)
	if !ok || S.Len() == 0 {
		return 0
	}
	if floats.Eq(hi, lo) {
		return 1
	}
	sum := 0.0
	S.ForEach(func(id int) {
		sum += (value(ctx, id, char, lo) - lo) / (hi - lo)
	})
	return sum / float64(S.Len())
}

// Min scores a set by its weakest member — the right aggregation for
// characteristics where the worst source dominates the experience, such as
// availability of a system that needs all sources up.
type Min struct{}

// Name implements Aggregator.
func (Min) Name() string { return "min" }

// Aggregate implements Aggregator.
func (Min) Aggregate(ctx *Context, S *model.SourceSet, char string) float64 {
	lo, hi, ok := ctx.CharRange(char)
	if !ok || S.Len() == 0 {
		return 0
	}
	if floats.Eq(hi, lo) {
		return 1
	}
	best := 1.0
	S.ForEach(func(id int) {
		v := (value(ctx, id, char, lo) - lo) / (hi - lo)
		if v < best {
			best = v
		}
	})
	return best
}

// Max scores a set by its strongest member — e.g. reputation when one
// trusted source is enough to anchor the integration.
type Max struct{}

// Name implements Aggregator.
func (Max) Name() string { return "max" }

// Aggregate implements Aggregator.
func (Max) Aggregate(ctx *Context, S *model.SourceSet, char string) float64 {
	lo, hi, ok := ctx.CharRange(char)
	if !ok || S.Len() == 0 {
		return 0
	}
	if floats.Eq(hi, lo) {
		return 1
	}
	best := 0.0
	S.ForEach(func(id int) {
		v := (value(ctx, id, char, lo) - lo) / (hi - lo)
		if v > best {
			best = v
		}
	})
	return best
}

// AggregatorByName returns a predefined aggregator, or false for an
// unknown name.
func AggregatorByName(name string) (Aggregator, bool) {
	switch name {
	case "wsum":
		return WSum{}, true
	case "mean":
		return Mean{}, true
	case "min":
		return Min{}, true
	case "max":
		return Max{}, true
	}
	return nil, false
}

// Characteristic is a user-defined QEF over one named source
// characteristic (§5): it applies an aggregation function to the
// characteristic's values over S. Its QEF name is the characteristic name,
// so weights read naturally ("mttf": 0.15).
type Characteristic struct {
	// Char is the characteristic to aggregate, e.g. "mttf".
	Char string
	// Agg is the aggregation function; the paper's experiments use WSum.
	Agg Aggregator
}

// Name implements QEF.
func (c Characteristic) Name() string { return c.Char }

// Eval implements QEF.
func (c Characteristic) Eval(ctx *Context, S *model.SourceSet) float64 {
	return c.Agg.Aggregate(ctx, S, c.Char)
}

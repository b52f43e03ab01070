package qef

import (
	"sync"

	"ube/internal/model"
	"ube/internal/pcsa"
)

// Rebase recomputes the context's precomputed state after its universe
// was mutated in place (source churn): total cardinality and the
// characteristic ranges are exact rescans, the scratch pool is rebuilt
// so its prototype matches the current signature parameters (a stale
// prototype would panic inside the union estimate after a full cooperative
// turnover), and the universe-distinct estimate is taken from the
// supplied union signature when the caller maintains one incrementally
// (the engine's pcsa.UnionCounter), or rescanned when union is nil.
//
// A rebased context is bit-identical to NewContext on the mutated
// universe: every recomputed field is either an exact fold or the PCSA
// estimate of the identical union bitmap.
func (ctx *Context) Rebase(union *pcsa.Sketch) error {
	if err := ctx.U.Validate(); err != nil {
		return err
	}
	ctx.totalCard = ctx.U.TotalCardinality()
	ctx.charRange = make(map[string][2]float64)
	ctx.scratch = nil
	for i := range ctx.U.Sources {
		s := &ctx.U.Sources[i]
		if s.Signature != nil && ctx.scratch == nil {
			proto := s.Signature
			ctx.scratch = &sync.Pool{New: func() any {
				sk := proto.Clone()
				sk.Reset()
				return sk
			}}
		}
		//ube:nondeterministic-ok per-key min/max fold is order-independent
		for name, v := range s.Characteristics {
			r, ok := ctx.charRange[name]
			if !ok {
				ctx.charRange[name] = [2]float64{v, v}
				continue
			}
			if v < r[0] {
				r[0] = v
			}
			if v > r[1] {
				r[1] = v
			}
			ctx.charRange[name] = r
		}
	}
	switch {
	case ctx.scratch == nil:
		ctx.universeDistinct = 0
	case union != nil:
		ctx.universeDistinct = union.Estimate()
	default:
		all := model.NewSourceSet(ctx.U.N())
		for i := 0; i < ctx.U.N(); i++ {
			all.Add(i)
		}
		ctx.universeDistinct = ctx.stats(all, true).distinct
	}
	return nil
}

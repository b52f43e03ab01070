package qef

import (
	"math"
	"math/rand"
	"testing"

	"ube/internal/model"
)

// extraQEF is a caller-defined QEF; EvalEdit must evaluate it on the
// materialized set.
type extraQEF struct{}

func (extraQEF) Name() string { return "extra" }
func (extraQEF) Eval(ctx *Context, S *model.SourceSet) float64 {
	return float64(S.Len()) / float64(ctx.U.N())
}

// TestDeltaEvalMatchesComposite is the delta ≡ full differential property
// test: over random universes (mixed cooperation, all built-in
// aggregators, an extra QEF) and random (base, add) pairs, EvalEdit of
// the add, of a drop of a base member and of the swap of the two must be
// bit-identical to the full Composite evaluation of the edited set.
func TestDeltaEvalMatchesComposite(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rd := rand.New(rand.NewSource(43)) // drops, apart from r's inputs
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(10)
		tuples := make([][]uint64, n)
		coop := make([]bool, n)
		for i := range tuples {
			from := r.Intn(5000)
			tuples[i] = seqTuples(from, from+100+r.Intn(3000))
			coop[i] = r.Intn(4) > 0
		}
		u := buildUniverse(t, tuples, coop)
		for i := range u.Sources {
			u.Sources[i].Characteristics = map[string]float64{}
			if r.Intn(5) > 0 {
				u.Sources[i].Characteristics["mttf"] = r.Float64() * 100
			}
		}
		ctx, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}

		// A Characteristic QEF is named after its characteristic, so only
		// one aggregator fits per composite; rotate through all four.
		agg := []Aggregator{WSum{}, Mean{}, Min{}, Max{}}[trial%4]
		qefs := []QEF{Card{}, Coverage{}, Redundancy{}, Characteristic{Char: "mttf", Agg: agg}, extraQEF{}}
		w := Weights{"card": 0.3, "coverage": 0.25, "redundancy": 0.2, "mttf": 0.15, "extra": 0.1}
		if trial%5 == 0 {
			// Exercise the zero-weight skip path.
			w = Weights{"card": 0.4, "coverage": 0.35, "redundancy": 0.25, "mttf": 0, "extra": 0}
		}
		comp, err := NewComposite(qefs, w)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			base := model.NewSourceSet(n)
			for id := 0; id < n; id++ {
				if r.Intn(2) == 0 {
					base.Add(id)
				}
			}
			add := r.Intn(n)
			if base.Has(add) {
				base.Remove(add)
			}

			b := NewBase(ctx, base, nil)
			drop := -1
			if els := base.Elements(); len(els) > 0 {
				drop = els[rd.Intn(len(els))]
			}
			for _, e := range []struct{ drop, add int }{{-1, add}, {drop, -1}, {drop, add}} {
				S := base.Clone()
				if e.drop >= 0 {
					S.Remove(e.drop)
				}
				if e.add >= 0 {
					S.Add(e.add)
				}
				got := comp.EvalEdit(ctx, b, e.drop, e.add, S)
				want := comp.Eval(ctx, S)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d agg %s drop %d add %d: edit %v vs full %v",
						trial, step, agg.Name(), e.drop, e.add, got, want)
				}
			}
		}
	}
}

// TestDeltaEvalExactOnSketchQEFs pins the guarantee on the integer- and
// sketch-backed QEFs alone: with only Card, Coverage and Redundancy
// weighted, every edit of a base — add, drop, swap — is bit-identical to
// the full path (the sums are integers and the population's edit union is
// the OR of the edited set's signatures).
func TestDeltaEvalExactOnSketchQEFs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 8
	tuples := make([][]uint64, n)
	coop := make([]bool, n)
	for i := range tuples {
		from := r.Intn(4000)
		tuples[i] = seqTuples(from, from+500+r.Intn(2000))
		coop[i] = i != 3 // one uncooperative source
	}
	u := buildUniverse(t, tuples, coop)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComposite([]QEF{Card{}, Coverage{}, Redundancy{}},
		Weights{"card": 0.4, "coverage": 0.3, "redundancy": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		base := model.NewSourceSet(n)
		for id := 0; id < n; id++ {
			if r.Intn(2) == 0 {
				base.Add(id)
			}
		}
		add := r.Intn(n)
		base.Remove(add)
		b := NewBase(ctx, base, nil)
		// Every drop of a member, alone and swapped for add.
		for _, drop := range append(base.Elements(), -1) {
			for _, a := range []int{-1, add} {
				S := base.Clone()
				if drop >= 0 {
					S.Remove(drop)
				}
				if a >= 0 {
					S.Add(a)
				}
				//ube:float-exact the edit path must be bit-identical to the full path
				if got, want := comp.EvalEdit(ctx, b, drop, a, S), comp.Eval(ctx, S); got != want {
					t.Fatalf("step %d: edit %v != full %v (base %v drop %d add %d)",
						step, got, want, base.Elements(), drop, a)
				}
			}
		}
	}
}

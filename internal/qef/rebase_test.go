package qef

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ube/internal/model"
	"ube/internal/pcsa"
)

// mutateForRebase edits a universe in place the way engine churn does —
// drop one source, append another, change a cardinality and a
// characteristic — and returns the batch's delta and the union of the
// surviving cooperative signatures.
func mutateForRebase(t *testing.T, u *model.Universe) (Delta, *pcsa.Sketch) {
	t.Helper()
	d := Delta{Gone: []model.Source{u.Sources[1], u.Sources[0]}}
	u.Sources = append(u.Sources[:1], u.Sources[2:]...)
	add := model.Source{
		Name:        "added",
		Attributes:  []string{"b"},
		Cardinality: 500,
		Characteristics: map[string]float64{
			"mttf": 250,
		},
	}
	sig := pcsa.MustNew(256, 7)
	for _, tp := range seqTuples(9000, 9500) {
		sig.AddUint64(tp)
	}
	add.Signature = sig
	u.Sources = append(u.Sources, add)
	u.Sources[0].Cardinality = 1234
	u.Sources[0].Characteristics = map[string]float64{"mttf": 10}
	for i := range u.Sources {
		u.Sources[i].ID = i
	}
	d.Fresh = []int{0, len(u.Sources) - 1}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	var coop []*pcsa.Sketch
	for i := range u.Sources {
		if sg := u.Sources[i].Signature; sg != nil {
			coop = append(coop, sg)
		}
	}
	un, err := pcsa.Union(coop...)
	if err != nil {
		t.Fatal(err)
	}
	return d, un
}

// rebaseFieldsEqual compares every precomputed Context field against a
// freshly built reference (same package, so unexported fields are
// directly visible; the scratch pools are compared by behavior).
func rebaseFieldsEqual(t *testing.T, got, want *Context) {
	t.Helper()
	if got.totalCard != want.totalCard {
		t.Errorf("totalCard %d, want %d", got.totalCard, want.totalCard)
	}
	//ube:float-exact Rebase promises bit-identity to NewContext
	if got.universeDistinct != want.universeDistinct {
		t.Errorf("universeDistinct %v, want %v", got.universeDistinct, want.universeDistinct)
	}
	if !reflect.DeepEqual(got.charRange, want.charRange) {
		t.Errorf("charRange %v, want %v", got.charRange, want.charRange)
	}
	if (got.scratch == nil) != (want.scratch == nil) {
		t.Fatalf("scratch nil-ness %v vs %v", got.scratch == nil, want.scratch == nil)
	}
	if got.scratch != nil {
		g := got.scratch.New().(*pcsa.Sketch)
		w := want.scratch.New().(*pcsa.Sketch)
		if g.NumMaps() != w.NumMaps() || g.Seed() != w.Seed() {
			t.Errorf("scratch prototype (%d,%d), want (%d,%d)", g.NumMaps(), g.Seed(), w.NumMaps(), w.Seed())
		}
	}
	if d := got.Diff(want); d != "" {
		t.Errorf("Diff: %s", d)
	}
}

// TestRebaseMatchesNewContext mutates a context's universe in place and
// checks Rebase, folding in the batch's delta, reproduces NewContext on
// the mutated universe bit-identically — both with a caller-maintained
// union sketch and with the rescan fallback.
func TestRebaseMatchesNewContext(t *testing.T) {
	build := func() *model.Universe {
		return buildUniverse(t, [][]uint64{
			seqTuples(0, 1000),
			seqTuples(500, 3000),
			seqTuples(2000, 6000),
		}, []bool{true, false, true})
	}
	for _, withUnion := range []bool{true, false} {
		u := build()
		ctx, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}
		d, un := mutateForRebase(t, u)
		if !withUnion {
			un = nil
		}
		if err := ctx.Rebase(d, un); err != nil {
			t.Fatal(err)
		}
		want, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}
		rebaseFieldsEqual(t, ctx, want)
		// The rebased context must evaluate exactly like the fresh one.
		S := setOf(u, 0, 2)
		for _, q := range []QEF{Card{}, Coverage{}, Redundancy{}} {
			//ube:float-exact Rebase promises bit-identity to NewContext
			if g, w := q.Eval(ctx, S), q.Eval(want, S); g != w {
				t.Errorf("withUnion=%v: %s eval %v, want %v", withUnion, q.Name(), g, w)
			}
		}
	}
}

// TestRebaseToUncooperative drains every cooperative source; the rebased
// context must drop its scratch pool and zero the distinct estimate,
// exactly like a fresh context on the sketch-free universe.
func TestRebaseToUncooperative(t *testing.T) {
	u := buildUniverse(t, [][]uint64{seqTuples(0, 100), seqTuples(0, 200)}, nil)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Gone: append([]model.Source(nil), u.Sources...)}
	for i := range u.Sources {
		u.Sources[i].Signature = nil
		d.Fresh = append(d.Fresh, i)
	}
	if err := ctx.Rebase(d, nil); err != nil {
		t.Fatal(err)
	}
	want, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	rebaseFieldsEqual(t, ctx, want)
}

// TestRebaseRejectsInvalid: a rebase whose delta brings in a broken
// source fails, and leaves the context as it was.
func TestRebaseRejectsInvalid(t *testing.T) {
	u := buildUniverse(t, [][]uint64{seqTuples(0, 100)}, nil)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Gone: []model.Source{u.Sources[0]}, Fresh: []int{0}}
	u.Sources[0].ID = 7
	u.Sources[0].Cardinality = 1
	if err := ctx.Rebase(d, nil); err == nil {
		t.Fatal("Rebase accepted a universe with non-dense IDs")
	}
	rebaseFieldsEqual(t, ctx, want)
}

// TestRebaseRandomDeltas folds random churn batches into one context and
// checks it against NewContext on the mutated universe after every
// batch. Characteristic values come from a small set with ties, +0, −0,
// +Inf and NaN, so each rule that sends a name to a rescan fires, and a
// full cooperative turnover may switch the signature parameters.
func TestRebaseRandomDeltas(t *testing.T) {
	values := []float64{1, 2, 3, 0, math.Copysign(0, -1), math.Inf(1)}
	names := []string{"mttf", "fee", "lat"}
	var sigs [2][3]*pcsa.Sketch
	for p := range sigs {
		for k := range sigs[p] {
			sigs[p][k] = pcsa.MustNew(16<<p, uint64(p+1))
			for _, tp := range seqTuples(100*k, 100*k+150) {
				sigs[p][k].AddUint64(tp)
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := 0
		chars := func() map[string]float64 {
			m := map[string]float64{}
			for _, name := range names {
				switch {
				case rng.Intn(40) == 0:
					m[name] = math.NaN()
				case rng.Intn(2) == 0:
					m[name] = values[rng.Intn(len(values))]
				}
			}
			return m
		}
		source := func(u *model.Universe) model.Source {
			s := model.Source{Name: "s", Attributes: []string{"a"}, Cardinality: rng.Int63n(100), Characteristics: chars()}
			if rng.Intn(3) > 0 {
				if firstSignature(u) == nil {
					params = rng.Intn(2)
				}
				s.Signature = sigs[params][rng.Intn(3)]
			}
			return s
		}
		u := &model.Universe{}
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			s := source(u)
			s.ID = i
			u.Sources = append(u.Sources, s)
		}
		ctx, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			var d Delta
			fresh := make([]bool, len(u.Sources))
			for op, n := 0, 1+rng.Intn(4); op < n; op++ {
				switch id := rng.Intn(len(u.Sources)); {
				case rng.Intn(3) == 0 || len(u.Sources) == 1:
					u.Sources = append(u.Sources, source(u))
					fresh = append(fresh, true)
				case rng.Intn(2) == 0:
					if !fresh[id] {
						d.Gone = append(d.Gone, u.Sources[id])
					}
					u.Sources = append(u.Sources[:id], u.Sources[id+1:]...)
					fresh = append(fresh[:id], fresh[id+1:]...)
				default:
					if !fresh[id] {
						d.Gone = append(d.Gone, u.Sources[id])
						fresh[id] = true
					}
					u.Sources[id].Cardinality = rng.Int63n(100)
					if rng.Intn(2) == 0 {
						u.Sources[id].Characteristics = chars()
					}
				}
			}
			var coop []*pcsa.Sketch
			for i := range u.Sources {
				u.Sources[i].ID = i
				if fresh[i] {
					d.Fresh = append(d.Fresh, i)
				}
				if sg := u.Sources[i].Signature; sg != nil {
					coop = append(coop, sg)
				}
			}
			var un *pcsa.Sketch
			if len(coop) > 0 && step%2 == 0 {
				if un, err = pcsa.Union(coop...); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctx.Rebase(d, un); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := NewContext(u)
			if err != nil {
				t.Fatal(err)
			}
			if diff := ctx.Diff(want); diff != "" {
				t.Fatalf("seed %d step %d: rebased context differs: %s", seed, step, diff)
			}
		}
	}
}

package qef

// Metamorphic properties of the QEF layer: relations that must hold
// between evaluations of related inputs, checked over seeded random
// universes. Unlike the example-based tests, these pin the algebra the
// solver leans on — monotonicity, permutation invariance, union
// idempotence — for both the full Composite pipeline and the delta
// (NewBase + EvalEdit) pipeline the incremental engine uses.

import (
	"bytes"
	"math/rand"
	"testing"

	"ube/internal/model"
	"ube/internal/pcsa"
)

const metamorphicTrials = 40

// randomMetaUniverse builds a universe of n sources with overlapping
// tuple ranges and a random cooperation mask (source 0 always
// cooperates so the PCSA machinery is live).
func randomMetaUniverse(t *testing.T, rng *rand.Rand, n int) *model.Universe {
	t.Helper()
	tuples := make([][]uint64, n)
	coop := make([]bool, n)
	for i := range tuples {
		lo := rng.Intn(5000)
		tuples[i] = seqTuples(lo, lo+500+rng.Intn(4000))
		coop[i] = i == 0 || rng.Float64() < 0.8
	}
	return buildUniverse(t, tuples, coop)
}

// randomSubset returns a random subset of [0,n), possibly empty.
func randomSubset(rng *rand.Rand, u *model.Universe, p float64) *model.SourceSet {
	s := model.NewSourceSet(u.N())
	for i := 0; i < u.N(); i++ {
		if rng.Float64() < p {
			s.Add(i)
		}
	}
	return s
}

// TestMetamorphicCardMonotoneUnderSuperset: S ⊆ T ⇒ Card(S) ≤ Card(T).
// Card is a nonnegative sum over members, so growing the set can never
// shrink the score.
func TestMetamorphicCardMonotoneUnderSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := randomMetaUniverse(t, rng, 12)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	c := Card{}
	for trial := 0; trial < metamorphicTrials; trial++ {
		sub := randomSubset(rng, u, 0.4)
		super := sub.Clone()
		for i := 0; i < u.N(); i++ {
			if rng.Float64() < 0.3 {
				super.Add(i)
			}
		}
		lo, hi := c.Eval(ctx, sub), c.Eval(ctx, super)
		if lo > hi {
			t.Fatalf("trial %d: Card(%v) = %v > Card(%v) = %v for a subset",
				trial, sub.Elements(), lo, super.Elements(), hi)
		}
	}
}

// TestMetamorphicCoveragePermutationInvariant: the union signature — and
// therefore Coverage — cannot depend on the order sources are OR-ed in.
// The sketches are compared at the byte level, the strongest form of the
// claim.
func TestMetamorphicCoveragePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := randomMetaUniverse(t, rng, 10)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	cov := Coverage{}
	for trial := 0; trial < metamorphicTrials; trial++ {
		s := randomSubset(rng, u, 0.6)
		var coopIDs []int
		s.ForEach(func(id int) {
			if u.Sources[id].Signature != nil {
				coopIDs = append(coopIDs, id)
			}
		})
		if len(coopIDs) < 2 {
			continue
		}

		union := func(order []int) *pcsa.Sketch {
			sk := u.Sources[order[0]].Signature.Clone()
			for _, id := range order[1:] {
				if err := sk.UnionInto(u.Sources[id].Signature); err != nil {
					t.Fatal(err)
				}
			}
			return sk
		}
		ascending := union(coopIDs)
		want, err := ascending.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			perm := append([]int(nil), coopIDs...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			got, err := union(perm).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("trial %d: union over %v has different sketch bytes than over %v", trial, perm, coopIDs)
			}
		}
		// The evaluated Coverage agrees with the explicit union's estimate.
		if ctx.UniverseDistinct() > 0 {
			want := min(ascending.Estimate()/ctx.UniverseDistinct(), 1)
			if got := cov.Eval(ctx, s); got != want {
				t.Fatalf("trial %d: Coverage(%v) = %v, explicit union gives %v", trial, s.Elements(), got, want)
			}
		}
	}
}

// TestMetamorphicSketchUnionAlgebra: sketch union is commutative,
// associative and idempotent at the byte level — the properties that
// make cached PCSA unions (engine snapshots, scratch pools) sound.
func TestMetamorphicSketchUnionAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func() *pcsa.Sketch {
		sk := pcsa.MustNew(256, 7)
		for i, n := 0, 100+rng.Intn(3000); i < n; i++ {
			sk.AddUint64(uint64(rng.Intn(20000)))
		}
		return sk
	}
	marshal := func(sk *pcsa.Sketch, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for trial := 0; trial < metamorphicTrials; trial++ {
		a, b, c := mk(), mk(), mk()
		ab := marshal(pcsa.Union(a, b))
		ba := marshal(pcsa.Union(b, a))
		if !bytes.Equal(ab, ba) {
			t.Fatalf("trial %d: A∪B != B∪A", trial)
		}
		abC := marshal(pcsa.Union(a, b, c))
		bcA := marshal(pcsa.Union(c, b, a))
		if !bytes.Equal(abC, bcA) {
			t.Fatalf("trial %d: (A∪B)∪C != C∪(B∪A)", trial)
		}
		aa := marshal(pcsa.Union(a, a))
		aAlone := marshal(a, nil)
		if !bytes.Equal(aa, aAlone) {
			t.Fatalf("trial %d: A∪A != A", trial)
		}
	}
}

// TestMetamorphicDeltaMatchesFullPipeline: for S = base ∪ {add}, the
// edit pipeline (NewBase + EvalEdit) must reproduce the full
// Composite.Eval bit for bit on the data-dependent QEFs — the invariant
// that lets the incremental engine swap pipelines candidate by
// candidate without perturbing the search trajectory.
func TestMetamorphicDeltaMatchesFullPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	u := randomMetaUniverse(t, rng, 12)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComposite(
		[]QEF{Card{}, Coverage{}, Redundancy{}},
		Weights{"card": 0.25, "coverage": 0.5, "redundancy": 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < metamorphicTrials; trial++ {
		base := randomSubset(rng, u, 0.4)
		add := rng.Intn(u.N())
		if base.Has(add) {
			base.Remove(add)
		}
		S := base.Clone()
		S.Add(add)

		b := NewBase(ctx, base, nil)
		got := comp.EvalEdit(ctx, b, -1, add, S)
		want := comp.Eval(ctx, S)
		if got != want {
			t.Fatalf("trial %d: EvalEdit(%v + %d) = %v, full Eval = %v (must be bit-identical)",
				trial, base.Elements(), add, got, want)
		}
		// The same base state edited by different sources stays exact:
		// base states are immutable and shareable. Each non-member is
		// added alone and swapped for each member.
		for i := 0; i < u.N(); i++ {
			if base.Has(i) || i == add {
				continue
			}
			for _, drop := range append(base.Elements(), -1) {
				S2 := base.Clone()
				S2.Add(i)
				if drop >= 0 {
					S2.Remove(drop)
				}
				if got, want := comp.EvalEdit(ctx, b, drop, i, S2), comp.Eval(ctx, S2); got != want {
					t.Fatalf("trial %d: reused base EvalEdit(-%d+%d) = %v, full Eval = %v", trial, drop, i, got, want)
				}
			}
		}
	}
}

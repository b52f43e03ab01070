package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/synth"
)

// naivePlan is the planner's oracle: it applies a batch to a copy of the
// universe one mutation at a time, checks the tuple-signature parameters
// against every live cooperative source at each add, and gives the final
// verdict to a full model.Universe.Validate, with the planner's error
// texts. It returns the post-batch universe and the ID remap.
func naivePlan(u *model.Universe, muts []Mutation) (*model.Universe, Remap, error) {
	if len(muts) == 0 {
		return nil, nil, errors.New("engine: empty churn batch")
	}
	out := cloneUniverse(u)
	orig := make([]int, u.N())
	for i := range orig {
		orig[i] = i
	}
	for mi, m := range muts {
		switch m.Op {
		case OpAdd:
			s := cloneUniverse(&model.Universe{Sources: []model.Source{m.Source}}).Sources[0]
			if sg := s.Signature; sg != nil {
				for i := range out.Sources {
					if live := out.Sources[i].Signature; live != nil && !live.Compatible(sg) {
						return nil, nil, fmt.Errorf("engine: churn mutation %d: signature parameters (%d maps, seed %d) incompatible with the live population's (%d maps, seed %d)",
							mi, sg.NumMaps(), sg.Seed(), live.NumMaps(), live.Seed())
					}
				}
			}
			out.Sources = append(out.Sources, s)
			orig = append(orig, -1)
		case OpRemove:
			if m.ID < 0 || m.ID >= out.N() {
				return nil, nil, fmt.Errorf("engine: churn mutation %d: remove of source %d out of range [0,%d)", mi, m.ID, out.N())
			}
			out.Sources = append(out.Sources[:m.ID], out.Sources[m.ID+1:]...)
			orig = append(orig[:m.ID], orig[m.ID+1:]...)
		case OpUpdate:
			if m.ID < 0 || m.ID >= out.N() {
				return nil, nil, fmt.Errorf("engine: churn mutation %d: update of source %d out of range [0,%d)", mi, m.ID, out.N())
			}
			if m.Cardinality != nil {
				out.Sources[m.ID].Cardinality = *m.Cardinality
			}
			if m.Characteristics != nil {
				out.Sources[m.ID].Characteristics = cloneUniverse(&model.Universe{Sources: []model.Source{{Characteristics: m.Characteristics}}}).Sources[0].Characteristics
			}
		default:
			return nil, nil, fmt.Errorf("engine: churn mutation %d: unknown op %q", mi, m.Op)
		}
	}
	for i := range out.Sources {
		out.Sources[i].ID = i
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: churn batch rejected: %w", err)
	}
	remap := make(Remap, u.N())
	for i := range remap {
		remap[i] = -1
	}
	for pos, o := range orig {
		if o >= 0 {
			remap[o] = pos
		}
	}
	return out, remap, nil
}

// sourcesText renders sources for exact comparison, NaN and −0
// included: fmt prints maps in key order and nested sketches by address,
// which the planner and the oracle share.
func sourcesText(ss []model.Source) string { return fmt.Sprintf("%#v", ss) }

// checkPlanChurn plans a batch on e and on the oracle and requires the
// same verdict and error text. An accepted batch must plan the oracle's
// universe and remap, and once committed leave the engine's universe,
// nameIDs and QEF context equal to a from-scratch build; a refused one
// must leave the universe untouched. It returns the verdict.
func checkPlanChurn(t *testing.T, e *Engine, muts []Mutation) error {
	t.Helper()
	before := sourcesText(e.Universe().Sources)
	want, wantRemap, wantErr := naivePlan(e.Universe(), muts)
	plan, err := e.planChurn(muts)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("planner verdict %v, oracle %v", err, wantErr)
	}
	if got := sourcesText(e.Universe().Sources); got != before {
		t.Fatal("planning mutated the universe")
	}
	if err != nil {
		return err
	}
	if got, w := sourcesText(plan.next), sourcesText(want.Sources); got != w {
		t.Fatalf("planned universe\n%s\nwant\n%s", got, w)
	}
	if !reflect.DeepEqual(plan.remap, wantRemap) {
		t.Fatalf("remap %v, want %v", plan.remap, wantRemap)
	}
	e.commitChurn(plan)
	if got, w := sourcesText(e.Universe().Sources), sourcesText(want.Sources); got != w {
		t.Fatalf("committed universe\n%s\nwant\n%s", got, w)
	}
	fresh, err := qef.NewContext(cloneUniverse(e.Universe()))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Context().Diff(fresh); d != "" {
		t.Fatalf("rebased context differs from NewContext: %s", d)
	}
	vocab := e.sim.Len()
	refs := map[int]int{}
	for i := range e.u.Sources {
		attrs := e.u.Sources[i].Attributes
		if len(e.nameIDs[i]) != len(attrs) {
			t.Fatalf("source %d: %d name IDs for %d attributes", i, len(e.nameIDs[i]), len(attrs))
		}
		for a, name := range attrs {
			if id := e.sim.Intern(name); e.nameIDs[i][a] != id {
				t.Fatalf("source %d attribute %d: name ID %d, want %d", i, a, e.nameIDs[i][a], id)
			}
			refs[e.nameIDs[i][a]]++
		}
	}
	if e.sim.Len() != vocab {
		t.Fatal("a committed attribute name was never interned")
	}
	if !reflect.DeepEqual(e.nameRefs, refs) {
		t.Fatalf("name refcounts %v, want %v", e.nameRefs, refs)
	}
	return nil
}

// planSketch returns a sketch with the given parameters over a few tuples.
func planSketch(nmaps int, seed uint64, from int) *pcsa.Sketch {
	s := pcsa.MustNew(nmaps, seed)
	for tp := from; tp < from+40; tp++ {
		s.AddUint64(uint64(tp))
	}
	return s
}

// planUniverse has both kinds of signature on different sources: s0
// cooperates and exports attribute signatures, s1 only cooperates, s2
// only exports attribute signatures, and s3 does neither.
func planUniverse() *model.Universe {
	attrSigs := func(k int) []*pcsa.Sketch {
		out := make([]*pcsa.Sketch, k)
		for a := range out {
			out[a] = planSketch(16, 5, 10*a)
		}
		return out
	}
	return &model.Universe{Sources: []model.Source{
		{ID: 0, Name: "s0", Attributes: []string{"title", "author"}, Cardinality: 40, Signature: planSketch(32, 1, 0), AttrSignatures: attrSigs(2), Characteristics: map[string]float64{"mttf": 3}},
		{ID: 1, Name: "s1", Attributes: []string{"isbn"}, Cardinality: 40, Signature: planSketch(32, 1, 20), Characteristics: map[string]float64{"mttf": 1, "fee": 0}},
		{ID: 2, Name: "s2", Attributes: []string{"title"}, Cardinality: 10, AttrSignatures: attrSigs(1), Characteristics: map[string]float64{"mttf": 2}},
		{ID: 3, Name: "s3", Attributes: []string{"price"}, Cardinality: 5},
	}}
}

// TestPlanChurnDifferential runs the batch-local planner and the oracle
// on TestChurnRejects' batches and on batches aimed at each check the
// planner makes from the batch alone.
func TestPlanChurnDifferential(t *testing.T) {
	cfg := synth.QuickConfig(12)
	quick, _, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 4, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	rejects := [][]Mutation{
		nil,
		{{Op: "rename", ID: 0}},
		{{Op: OpRemove, ID: 99}},
		{{Op: OpRemove, ID: -1}},
		{{Op: OpUpdate, ID: 99}},
		{{Op: OpAdd, Source: model.Source{Name: "bad"}}},
		{{Op: OpAdd, Source: model.Source{Name: "bad-sig", Attributes: []string{"title"}, Cardinality: 10, Signature: pcsa.MustNew(16, 999)}}},
		{{Op: OpRemove, ID: 11}, {Op: OpRemove, ID: 11}},
		{{Op: OpRemove, ID: 11}, {Op: OpRemove, ID: 10}},
	}
	for i, muts := range rejects {
		t.Run(fmt.Sprintf("rejects-%d", i), func(t *testing.T) {
			e, err := New(cloneUniverse(quick), WithSparseScores())
			if err != nil {
				t.Fatal(err)
			}
			// The last batch is TestChurnRejects' accepted one.
			if err := checkPlanChurn(t, e, muts); (err != nil) != (i < len(rejects)-1) {
				t.Fatalf("verdict %v", err)
			}
		})
	}
	neg := int64(-1)
	card := int64(7)
	add := func(name string, attrs []string, sig *pcsa.Sketch, attrSigs []*pcsa.Sketch, chars map[string]float64) Mutation {
		return Mutation{Op: OpAdd, Source: model.Source{Name: name, Attributes: attrs, Cardinality: 3, Signature: sig, AttrSignatures: attrSigs, Characteristics: chars}}
	}
	cases := []struct {
		name   string
		refuse bool
		muts   []Mutation
	}{
		{"negative-cardinality-update", true, []Mutation{{Op: OpUpdate, ID: 1, Cardinality: &neg}}},
		{"negative-characteristic-update", true, []Mutation{{Op: OpUpdate, ID: 2, Characteristics: map[string]float64{"mttf": -2}}}},
		{"negative-characteristic-add", true, []Mutation{add("neg", []string{"year"}, nil, nil, map[string]float64{"fee": -1})}},
		{"negative-cardinality-add", true, []Mutation{{Op: OpAdd, Source: model.Source{Name: "neg", Attributes: []string{"year"}, Cardinality: -4}}}},
		{"negative-update-then-fixed", false, []Mutation{{Op: OpUpdate, ID: 1, Cardinality: &neg}, {Op: OpUpdate, ID: 1, Cardinality: &card}}},
		{"negative-update-then-removed", false, []Mutation{{Op: OpUpdate, ID: 3, Characteristics: map[string]float64{"fee": -1}}, {Op: OpRemove, ID: 3}}},
		{"attr-signature-count-mismatch", true, []Mutation{add("short", []string{"title", "year"}, nil, []*pcsa.Sketch{planSketch(16, 5, 0)}, nil)}},
		{"attr-signature-nil", true, []Mutation{add("nil", []string{"title"}, nil, []*pcsa.Sketch{nil}, nil)}},
		{"attr-signature-incompatible", true, []Mutation{add("other", []string{"title"}, nil, []*pcsa.Sketch{planSketch(32, 5, 0)}, nil)}},
		{"attr-signature-incompatible-within", true, []Mutation{add("mixed", []string{"title", "year"}, nil, []*pcsa.Sketch{planSketch(16, 5, 0), planSketch(16, 6, 0)}, nil)}},
		{"attr-signature-incompatible-then-removed", false, []Mutation{add("other", []string{"title"}, nil, []*pcsa.Sketch{planSketch(32, 5, 0)}, nil), {Op: OpRemove, ID: 4}}},
		{"invalid-add-then-removed", false, []Mutation{add("empty", nil, nil, nil, nil), {Op: OpRemove, ID: 4}}},
		{"last-attr-signature-source-replaced", false, []Mutation{{Op: OpRemove, ID: 2}, {Op: OpRemove, ID: 0}, add("new-attr", []string{"title"}, nil, []*pcsa.Sketch{planSketch(64, 9, 0)}, nil)}},
		{"last-attr-signature-source-replaced-mixed", true, []Mutation{{Op: OpRemove, ID: 2}, {Op: OpRemove, ID: 0}, add("a", []string{"title"}, nil, []*pcsa.Sketch{planSketch(64, 9, 0)}, nil), add("b", []string{"year"}, nil, []*pcsa.Sketch{planSketch(16, 5, 0)}, nil)}},
		{"attr-signature-nil-first-then-mixed", true, []Mutation{{Op: OpRemove, ID: 2}, {Op: OpRemove, ID: 0}, add("nil", []string{"title"}, nil, []*pcsa.Sketch{nil}, nil), add("a", []string{"title"}, nil, []*pcsa.Sketch{planSketch(64, 9, 0)}, nil), add("b", []string{"year"}, nil, []*pcsa.Sketch{planSketch(16, 5, 0)}, nil), {Op: OpRemove, ID: 2}}},
		{"last-cooperative-source-replaced", false, []Mutation{{Op: OpRemove, ID: 1}, {Op: OpRemove, ID: 0}, add("new-coop", []string{"year"}, planSketch(64, 9, 0), nil, map[string]float64{"mttf": 9})}},
		{"cooperative-transient-mix", true, []Mutation{add("new-coop", []string{"year"}, planSketch(64, 9, 0), nil, nil), {Op: OpRemove, ID: 0}, {Op: OpRemove, ID: 0}}},
		{"add-update-remove", false, []Mutation{add("x", []string{"year"}, planSketch(32, 1, 5), nil, map[string]float64{"mttf": 5}), {Op: OpUpdate, ID: 4, Cardinality: &card, Characteristics: map[string]float64{"mttf": 0.5}}, {Op: OpRemove, ID: 0}, {Op: OpUpdate, ID: 0, Characteristics: map[string]float64{}}}},
		{"remove-extremes", false, []Mutation{{Op: OpRemove, ID: 0}, {Op: OpRemove, ID: 0}, {Op: OpUpdate, ID: 0, Cardinality: &card}}},
		{"negative-zero-and-nan", false, []Mutation{{Op: OpUpdate, ID: 3, Characteristics: map[string]float64{"fee": math.Copysign(0, -1)}}, add("nan", []string{"year"}, nil, nil, map[string]float64{"mttf": math.NaN()})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(planUniverse())
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPlanChurn(t, e, tc.muts); (err != nil) != tc.refuse {
				t.Fatalf("verdict %v", err)
			}
		})
	}
}

// planReader hands out fuzz bytes; past the end it returns zeros.
type planReader []byte

func (r *planReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// FuzzPlanChurn builds a valid universe and a batch from the input and
// requires the batch-local planner to agree with the oracle
// (checkPlanChurn). The generator reaches every check: empty schemas,
// negative cardinalities and characteristics, tuple and attribute
// signatures with other parameters, wrong-length and nil attribute
// signatures, out-of-range IDs and unknown ops; characteristic values
// include ties, −0 and NaN.
func FuzzPlanChurn(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 2, 1, 9, 1, 1, 2, 2, 3, 3, 4, 4, 0, 7, 1, 3, 2, 2, 0, 6, 6, 1})
	f.Add([]byte{2, 3, 3, 1, 1, 4, 1, 2, 1, 1, 4, 0, 1, 0, 0, 2, 5, 5, 5, 5})
	names := []string{"title", "author", "isbn", "price", "year"}
	values := []float64{1, 2, 0, math.Copysign(0, -1), math.NaN(), -1}
	var tuple, attr [3]*pcsa.Sketch
	for k := range tuple {
		tuple[k] = planSketch(16<<k, uint64(k+1), 7*k)
		attr[k] = planSketch(16<<k, uint64(k+11), 5*k)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := planReader(data)
		// bad widens the generator to invalid values: 0 in the universe,
		// which must stay valid, and 1 in a batch.
		source := func(bad int) model.Source {
			b := r.next()
			s := model.Source{Name: "s", Cardinality: int64(b%8) - int64(bad*(b>>7))}
			for k := 0; k < (b>>3)%3+1-bad*(b>>6&1); k++ {
				s.Attributes = append(s.Attributes, names[r.next()%len(names)])
			}
			if c := r.next(); c%3 > 0 {
				s.Signature = tuple[(c>>2)%(1+2*bad)]
			}
			if c := r.next(); c%3 == 1 {
				s.AttrSignatures = make([]*pcsa.Sketch, len(s.Attributes)+bad*((c>>2)%2))
				for a := range s.AttrSignatures {
					if bad == 0 || (c>>3)%4 != 0 {
						s.AttrSignatures[a] = attr[(c>>5)*bad%3]
					}
				}
			}
			if c := r.next(); c%2 == 1 {
				s.Characteristics = map[string]float64{}
				for _, name := range []string{"mttf", "fee"} {
					if v := r.next(); v%3 > 0 {
						s.Characteristics[name] = values[(v>>2)%(len(values)-1+bad)]
					}
				}
			}
			return s
		}
		u := &model.Universe{}
		for i, n := 0, 1+r.next()%5; i < n; i++ {
			s := source(0)
			s.ID = i
			u.Sources = append(u.Sources, s)
		}
		if u.Validate() != nil {
			// Mixed signature parameters; the planner starts from a
			// valid universe.
			return
		}
		e, err := New(u)
		if err != nil {
			t.Fatal(err)
		}
		var muts []Mutation
		for k, n := 0, r.next()%7; k < n; k++ {
			op := r.next()
			id := r.next()%(u.N()+3) - 1
			switch op % 5 {
			case 0, 1:
				muts = append(muts, Mutation{Op: OpAdd, Source: source(1)})
			case 2:
				muts = append(muts, Mutation{Op: OpRemove, ID: id})
			case 3:
				m := Mutation{Op: OpUpdate, ID: id}
				if op&8 != 0 {
					c := int64(op>>4) - 4
					m.Cardinality = &c
				}
				if op&16 != 0 {
					m.Characteristics = map[string]float64{"mttf": values[(op>>5)%len(values)]}
				}
				muts = append(muts, m)
			default:
				muts = append(muts, Mutation{Op: "rename", ID: id})
			}
		}
		checkPlanChurn(t, e, muts)
	})
}

package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ube/internal/pcsa"
)

// testUniverse builds a tiny universe with predictable schemas.
func testUniverse() *Universe {
	u := &Universe{}
	schemas := [][]string{
		{"title", "author", "isbn"},
		{"title", "keyword"},
		{"author", "price", "format"},
		{"keyword"},
	}
	for i, attrs := range schemas {
		u.Sources = append(u.Sources, Source{
			ID:          i,
			Name:        "src" + string(rune('A'+i)),
			Attributes:  attrs,
			Cardinality: int64(100 * (i + 1)),
			Characteristics: map[string]float64{
				"mttf": float64(50 + 10*i),
			},
		})
	}
	return u
}

func TestUniverseBasics(t *testing.T) {
	u := testUniverse()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.N() != 4 {
		t.Errorf("N = %d", u.N())
	}
	if u.TotalCardinality() != 100+200+300+400 {
		t.Errorf("TotalCardinality = %d", u.TotalCardinality())
	}
	if u.NumAttributes() != 9 {
		t.Errorf("NumAttributes = %d", u.NumAttributes())
	}
	if got := u.AttrName(AttrRef{2, 1}); got != "price" {
		t.Errorf("AttrName = %q", got)
	}
	if !u.ValidRef(AttrRef{0, 2}) || u.ValidRef(AttrRef{0, 3}) ||
		u.ValidRef(AttrRef{4, 0}) || u.ValidRef(AttrRef{-1, 0}) {
		t.Error("ValidRef wrong")
	}
	if v, ok := u.Source(1).Characteristic("mttf"); !ok || v != 60 {
		t.Errorf("Characteristic = %v,%v", v, ok)
	}
	if _, ok := u.Source(1).Characteristic("fee"); ok {
		t.Error("missing characteristic reported present")
	}
}

func TestUniverseValidateErrors(t *testing.T) {
	mk := func(mut func(*Universe)) *Universe {
		u := testUniverse()
		mut(u)
		return u
	}
	cases := map[string]*Universe{
		"bad id":           mk(func(u *Universe) { u.Sources[2].ID = 7 }),
		"empty schema":     mk(func(u *Universe) { u.Sources[1].Attributes = nil }),
		"negative card":    mk(func(u *Universe) { u.Sources[0].Cardinality = -1 }),
		"negative charact": mk(func(u *Universe) { u.Sources[0].Characteristics["mttf"] = -3 }),
		"mixed signatures": mk(func(u *Universe) {
			u.Sources[0].Signature = pcsa.MustNew(64, 0)
			u.Sources[1].Signature = pcsa.MustNew(128, 0)
		}),
	}
	for name, u := range cases {
		if err := u.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
	// Uncooperative sources (nil signature) are fine.
	u := testUniverse()
	u.Sources[0].Signature = pcsa.MustNew(64, 0)
	if err := u.Validate(); err != nil {
		t.Errorf("partial signatures should validate: %v", err)
	}
	if !u.Sources[0].Cooperative() || u.Sources[1].Cooperative() {
		t.Error("Cooperative wrong")
	}
}

func TestGADefinition1(t *testing.T) {
	// Valid: attributes from distinct sources.
	g := NewGA(AttrRef{0, 0}, AttrRef{1, 0}, AttrRef{2, 1})
	if !g.Valid() {
		t.Error("distinct-source GA should be valid")
	}
	// Invalid: empty.
	if GA(nil).Valid() {
		t.Error("empty GA must be invalid (Definition 1)")
	}
	// Invalid: two attributes from the same source.
	bad := NewGA(AttrRef{0, 0}, AttrRef{0, 1})
	if bad.Valid() {
		t.Error("same-source GA must be invalid (Definition 1)")
	}
	// NewGA canonicalizes: dedupe + sort.
	dup := NewGA(AttrRef{1, 0}, AttrRef{0, 0}, AttrRef{1, 0})
	if len(dup) != 2 || dup[0] != (AttrRef{0, 0}) || dup[1] != (AttrRef{1, 0}) {
		t.Errorf("NewGA not canonical: %v", dup)
	}
}

func TestGASetOps(t *testing.T) {
	g := NewGA(AttrRef{0, 0}, AttrRef{1, 1}, AttrRef{3, 0})
	if !g.Contains(AttrRef{1, 1}) || g.Contains(AttrRef{1, 0}) {
		t.Error("Contains wrong")
	}
	sub := NewGA(AttrRef{0, 0}, AttrRef{3, 0})
	if !g.ContainsAll(sub) || sub.ContainsAll(g) {
		t.Error("ContainsAll wrong")
	}
	other := NewGA(AttrRef{3, 0}, AttrRef{2, 2})
	if !g.Intersects(other) {
		t.Error("Intersects should be true")
	}
	disjoint := NewGA(AttrRef{2, 0}, AttrRef{4, 4})
	if g.Intersects(disjoint) {
		t.Error("Intersects should be false")
	}
	if !g.TouchesSource(3) || g.TouchesSource(2) {
		t.Error("TouchesSource wrong")
	}
	if got := g.Sources(); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("Sources = %v", got)
	}
	m := g.Merge(other)
	if len(m) != 4 || !m.Contains(AttrRef{2, 2}) {
		t.Errorf("Merge = %v", m)
	}
	if !g.Equal(NewGA(AttrRef{3, 0}, AttrRef{0, 0}, AttrRef{1, 1})) {
		t.Error("Equal wrong")
	}
	if g.Equal(sub) {
		t.Error("Equal false positive")
	}
}

func TestGAQuickProperties(t *testing.T) {
	// Generate random small GAs and check canonical-form invariants.
	gen := func(r *rand.Rand) GA {
		n := r.Intn(6)
		refs := make([]AttrRef, n)
		for i := range refs {
			refs[i] = AttrRef{Source: r.Intn(5), Attr: r.Intn(3)}
		}
		return NewGA(refs...)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		g, h := gen(r), gen(r)
		// Merge is commutative and contains both operands.
		m1, m2 := g.Merge(h), h.Merge(g)
		if !m1.Equal(m2) {
			t.Fatalf("merge not commutative: %v vs %v", m1, m2)
		}
		if !m1.ContainsAll(g) || !m1.ContainsAll(h) {
			t.Fatalf("merge does not contain operands")
		}
		// Intersects is symmetric and consistent with Contains.
		if g.Intersects(h) != h.Intersects(g) {
			t.Fatalf("intersects not symmetric")
		}
		// Idempotent merge.
		if !g.Merge(g).Equal(g) {
			t.Fatalf("merge not idempotent")
		}
	}
}

func TestMediatedSchemaDefinition2(t *testing.T) {
	title := NewGA(AttrRef{0, 0}, AttrRef{1, 0})
	author := NewGA(AttrRef{0, 1}, AttrRef{2, 0})
	kw := NewGA(AttrRef{1, 1}, AttrRef{3, 0})

	m := &MediatedSchema{GAs: []GA{title, author, kw}}
	if !m.Valid() {
		t.Error("disjoint valid GAs should form a valid schema")
	}
	if !m.ValidOn([]int{0, 1, 2, 3}) {
		t.Error("schema should span all four sources")
	}
	if m.ValidOn([]int{0, 1, 2, 3, 4}) {
		t.Error("schema does not touch source 4")
	}
	// Overlapping GAs are invalid.
	overlap := &MediatedSchema{GAs: []GA{title, NewGA(AttrRef{0, 0}, AttrRef{2, 1})}}
	if overlap.Valid() {
		t.Error("intersecting GAs must make the schema invalid (Definition 2)")
	}
	// A schema with an invalid GA is invalid.
	withBad := &MediatedSchema{GAs: []GA{NewGA(AttrRef{0, 0}, AttrRef{0, 1})}}
	if withBad.Valid() {
		t.Error("schema containing an invalid GA must be invalid")
	}
	// Empty schema is vacuously valid and valid on no sources.
	empty := &MediatedSchema{}
	if !empty.Valid() || !empty.ValidOn(nil) || empty.ValidOn([]int{0}) {
		t.Error("empty schema validity wrong")
	}
	if m.NumAttributes() != 6 {
		t.Errorf("NumAttributes = %d", m.NumAttributes())
	}
	if m.Covering(AttrRef{2, 0}) != 1 || m.Covering(AttrRef{2, 1}) != -1 {
		t.Error("Covering wrong")
	}
	c := m.Clone()
	c.GAs[0][0] = AttrRef{9, 9}
	if m.GAs[0][0] == (AttrRef{9, 9}) {
		t.Error("Clone is shallow")
	}
}

func TestSubsumptionDefinition3(t *testing.T) {
	big := &MediatedSchema{GAs: []GA{
		NewGA(AttrRef{0, 0}, AttrRef{1, 0}, AttrRef{2, 0}),
		NewGA(AttrRef{0, 1}, AttrRef{3, 0}),
	}}
	small := &MediatedSchema{GAs: []GA{
		NewGA(AttrRef{0, 0}, AttrRef{2, 0}),
	}}
	if !big.Subsumes(small) {
		t.Error("big should subsume small")
	}
	if small.Subsumes(big) {
		t.Error("small should not subsume big")
	}
	// Subsumption is reflexive.
	if !big.Subsumes(big) {
		t.Error("subsumption must be reflexive")
	}
	// Every schema subsumes the empty schema.
	if !small.Subsumes(&MediatedSchema{}) {
		t.Error("every schema subsumes the empty schema")
	}
	// A GA split across two GAs is not subsumed.
	split := &MediatedSchema{GAs: []GA{
		NewGA(AttrRef{0, 0}, AttrRef{3, 0}),
	}}
	if big.Subsumes(split) {
		t.Error("GA spanning two of big's GAs must not be subsumed")
	}
}

func TestSubsumptionTransitivity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randSchema := func() *MediatedSchema {
		// Build a random valid schema by partitioning random refs.
		used := map[AttrRef]bool{}
		m := &MediatedSchema{}
		for g := 0; g < 1+r.Intn(3); g++ {
			var refs []AttrRef
			for a := 0; a < 1+r.Intn(3); a++ {
				ref := AttrRef{Source: r.Intn(6), Attr: r.Intn(2)}
				if used[ref] {
					continue
				}
				// Keep GA valid: one attr per source.
				dup := false
				for _, e := range refs {
					if e.Source == ref.Source {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				used[ref] = true
				refs = append(refs, ref)
			}
			if len(refs) > 0 {
				m.GAs = append(m.GAs, NewGA(refs...))
			}
		}
		return m
	}
	for i := 0; i < 300; i++ {
		a, b, c := randSchema(), randSchema(), randSchema()
		if b.Subsumes(a) && c.Subsumes(b) && !c.Subsumes(a) {
			t.Fatalf("subsumption not transitive:\na=%v\nb=%v\nc=%v", a, b, c)
		}
	}
}

func TestConstraints(t *testing.T) {
	u := testUniverse()
	c := &Constraints{
		Sources: []int{2},
		GAs: []GA{
			NewGA(AttrRef{0, 0}, AttrRef{1, 0}), // title/title
		},
	}
	if err := c.Validate(u); err != nil {
		t.Fatal(err)
	}
	if got := c.ImpliedSources(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("ImpliedSources = %v", got)
	}

	bad := &Constraints{Sources: []int{99}}
	if err := bad.Validate(u); err == nil {
		t.Error("out-of-range source constraint should fail")
	}
	bad = &Constraints{GAs: []GA{NewGA(AttrRef{0, 9})}}
	if err := bad.Validate(u); err == nil {
		t.Error("dangling GA ref should fail")
	}
	bad = &Constraints{GAs: []GA{{}}}
	if err := bad.Validate(u); err == nil {
		t.Error("empty GA constraint should fail")
	}
	bad = &Constraints{GAs: []GA{
		NewGA(AttrRef{0, 0}, AttrRef{1, 0}),
		NewGA(AttrRef{0, 0}, AttrRef{2, 0}),
	}}
	if err := bad.Validate(u); err == nil {
		t.Error("overlapping GA constraints should fail")
	}
	bad = &Constraints{Sources: []int{1}, Exclude: []int{1}}
	if err := bad.Validate(u); err == nil {
		t.Error("required+excluded source should fail")
	}
	bad = &Constraints{Exclude: []int{-1}}
	if err := bad.Validate(u); err == nil {
		t.Error("out-of-range exclusion should fail")
	}
	// GA-implied sources also conflict with exclusions.
	bad = &Constraints{
		GAs:     []GA{NewGA(AttrRef{0, 0}, AttrRef{1, 0})},
		Exclude: []int{0},
	}
	if err := bad.Validate(u); err == nil {
		t.Error("excluding a GA-constraint source should fail")
	}

	cl := c.Clone()
	cl.Sources[0] = 3
	cl.GAs[0][0] = AttrRef{3, 0}
	if c.Sources[0] != 2 || c.GAs[0][0] != (AttrRef{0, 0}) {
		t.Error("Clone is shallow")
	}
}

func TestUniverseJSONRoundTrip(t *testing.T) {
	u := testUniverse()
	sig := pcsa.MustNew(64, 3)
	for i := 0; i < 500; i++ {
		sig.AddUint64(uint64(i))
	}
	u.Sources[0].Signature = sig

	data, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var back Universe
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.N() != u.N() || back.TotalCardinality() != u.TotalCardinality() {
		t.Error("round trip changed universe shape")
	}
	if back.Sources[0].Signature == nil ||
		back.Sources[0].Signature.Estimate() != sig.Estimate() {
		t.Error("signature lost in round trip")
	}
	if back.Sources[1].Signature != nil {
		t.Error("nil signature should stay nil")
	}
	if back.Sources[2].Characteristics["mttf"] != 70 {
		t.Error("characteristics lost")
	}
}

func TestSourceSetBasics(t *testing.T) {
	s := NewSourceSet(200)
	if s.Cap() != 200 || s.Len() != 0 {
		t.Error("fresh set wrong")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(199)
	s.Add(64) // duplicate
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if !s.Has(63) || s.Has(62) || s.Has(-1) || s.Has(200) {
		t.Error("Has wrong")
	}
	if got := s.Elements(); !reflect.DeepEqual(got, []int{0, 63, 64, 199}) {
		t.Errorf("Elements = %v", got)
	}
	s.Remove(63)
	s.Remove(63) // double remove
	s.Remove(-5) // out of range is a no-op
	if s.Len() != 3 || s.Has(63) {
		t.Error("Remove wrong")
	}
	var visited []int
	s.ForEach(func(id int) { visited = append(visited, id) })
	if !reflect.DeepEqual(visited, []int{0, 64, 199}) {
		t.Errorf("ForEach = %v", visited)
	}
	c := s.Clone()
	c.Add(5)
	if s.Has(5) {
		t.Error("Clone not independent")
	}
	if !s.Equal(NewSourceSetOf(200, 0, 64, 199)) {
		t.Error("Equal wrong")
	}
	if s.Equal(NewSourceSetOf(200, 0, 64)) || s.Equal(NewSourceSetOf(100, 0, 64, 99)) {
		t.Error("Equal false positive")
	}
	if !s.ContainsAll(NewSourceSetOf(200, 0, 199)) {
		t.Error("ContainsAll wrong")
	}
	if s.ContainsAll(NewSourceSetOf(200, 0, 1)) {
		t.Error("ContainsAll false positive")
	}
}

func TestSourceSetAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of range should panic")
		}
	}()
	NewSourceSet(10).Add(10)
}

func TestSourceSetKeys(t *testing.T) {
	a := NewSourceSetOf(300, 3, 77, 250)
	b := NewSourceSetOf(300, 250, 3, 77)
	if a.Key() != b.Key() {
		t.Error("equal sets must have equal keys")
	}
	c := NewSourceSetOf(300, 3, 77)
	if a.Key() == c.Key() {
		t.Error("different sets must have different keys")
	}
	if a.SortedKey() != "3,77,250" {
		t.Errorf("SortedKey = %q", a.SortedKey())
	}
}

func TestSourceSetQuick(t *testing.T) {
	// Set semantics match a reference map implementation.
	prop := func(ops []uint16) bool {
		s := NewSourceSet(1 << 16)
		ref := map[int]bool{}
		for i, op := range ops {
			id := int(op)
			if i%3 == 2 {
				s.Remove(id)
				delete(ref, id)
			} else {
				s.Add(id)
				ref[id] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for id := range ref {
			if !s.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUniverseJSONWithAttrSignatures(t *testing.T) {
	u := testUniverse()
	for i := range u.Sources {
		src := &u.Sources[i]
		src.AttrSignatures = make([]*pcsa.Sketch, len(src.Attributes))
		for a := range src.Attributes {
			sig := pcsa.MustNew(64, 9)
			for v := 0; v < 100*(a+1); v++ {
				sig.AddUint64(uint64(i*10000 + a*1000 + v))
			}
			src.AttrSignatures[a] = sig
		}
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var back Universe
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range u.Sources {
		for a := range u.Sources[i].Attributes {
			want := u.Sources[i].AttrSignatures[a].Estimate()
			got := back.Sources[i].AttrSignatures[a].Estimate()
			if want != got {
				t.Fatalf("source %d attr %d signature lost: %v vs %v", i, a, got, want)
			}
		}
	}
}

func TestAttrSignatureValidation(t *testing.T) {
	u := testUniverse()
	// Misaligned signature count.
	u.Sources[0].AttrSignatures = []*pcsa.Sketch{pcsa.MustNew(64, 0)}
	if err := u.Validate(); err == nil {
		t.Error("misaligned AttrSignatures accepted")
	}
	// Nil entry.
	u = testUniverse()
	u.Sources[1].AttrSignatures = make([]*pcsa.Sketch, len(u.Sources[1].Attributes))
	if err := u.Validate(); err == nil {
		t.Error("nil attr signature accepted")
	}
	// Incompatible parameters across sources.
	u = testUniverse()
	u.Sources[0].AttrSignatures = []*pcsa.Sketch{pcsa.MustNew(64, 0), pcsa.MustNew(64, 0), pcsa.MustNew(64, 0)}
	u.Sources[1].AttrSignatures = []*pcsa.Sketch{pcsa.MustNew(128, 0), pcsa.MustNew(128, 0)}
	if err := u.Validate(); err == nil {
		t.Error("incompatible attr signatures accepted")
	}
}

// TestMediatedSchemaValidMatchesReference checks the table-based
// disjointness test against a plain map over random schemas: small ones
// (table on the stack), large ones (table on the heap), schemas that
// share an attribute, and attributes too wide to pack (sorted fallback).
func TestMediatedSchemaValidMatchesReference(t *testing.T) {
	reference := func(m *MediatedSchema) bool {
		seen := map[AttrRef]bool{}
		for _, g := range m.GAs {
			if !g.Valid() {
				return false
			}
			for _, r := range g {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return true
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		nGA := 1 + r.Intn(12)
		if trial%10 == 0 {
			nGA = 100 + r.Intn(100) // past the stack table
		}
		base := 0
		if trial%7 == 0 {
			base = math.MaxUint32 - 3 // does not pack into 32 bits
		}
		// A wide attribute space keeps most schemas disjoint; half of
		// them then get one attribute repeated in a later GA.
		m := &MediatedSchema{}
		for i := 0; i < nGA; i++ {
			var refs []AttrRef
			for s := 0; s < 1+r.Intn(5); s++ {
				refs = append(refs, AttrRef{Source: base + r.Intn(3000), Attr: r.Intn(40)})
			}
			if g := NewGA(refs...); g.Valid() || r.Intn(8) == 0 {
				m.GAs = append(m.GAs, g)
			}
		}
		if r.Intn(2) == 0 && len(m.GAs) > 0 {
			g := m.GAs[r.Intn(len(m.GAs))]
			m.GAs = append(m.GAs, GA{g[r.Intn(len(g))]})
		}
		if got, want := m.Valid(), reference(m); got != want {
			t.Fatalf("trial %d: Valid() = %v, reference %v on %v", trial, got, want, m.GAs)
		}
	}
}

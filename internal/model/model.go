// Package model defines the µBE data model: data sources with relational
// schemas, data characteristics and non-functional source characteristics;
// global attributes (GAs); mediated schemas; and the user-supplied
// constraints that guide source selection and schema mediation (paper §2).
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"ube/internal/pcsa"
)

// An AttrRef identifies one attribute in a universe: attribute Attr (an
// index into the source's schema) of source Source (the source's ID).
type AttrRef struct {
	Source int `json:"source"`
	Attr   int `json:"attr"`
}

// Less orders AttrRefs lexicographically by (Source, Attr).
func (r AttrRef) Less(o AttrRef) bool {
	if r.Source != o.Source {
		return r.Source < o.Source
	}
	return r.Attr < o.Attr
}

// Compare orders AttrRefs like Less, as a three-way comparison for
// slices.SortFunc.
func (r AttrRef) Compare(o AttrRef) int {
	if c := cmp.Compare(r.Source, o.Source); c != 0 {
		return c
	}
	return cmp.Compare(r.Attr, o.Attr)
}

// A Source is a data source as µBE sees it (§2.1): a schema (a list of
// attribute names), the cardinality of its data, an optional PCSA signature
// of that data, and a set of named non-functional characteristics such as
// mean time to failure, latency or fees.
type Source struct {
	// ID is the source's index in its universe; Universe.Validate
	// enforces that IDs are dense and in order.
	ID int `json:"id"`
	// Name is a human-readable label, e.g. the site hostname.
	Name string `json:"name"`
	// Attributes is the source's schema: the attribute names exposed by
	// its query interface.
	Attributes []string `json:"attributes"`
	// Cardinality is the number of tuples at the source, as reported by
	// the source itself.
	Cardinality int64 `json:"cardinality"`
	// Signature is the PCSA hash signature of the source's tuples, used
	// to estimate cardinalities of unions. A nil signature marks an
	// uncooperative source (§4): it is excluded from coverage and
	// redundancy computations but can still be selected.
	Signature *pcsa.Sketch `json:"signature,omitempty"`
	// AttrSignatures optionally holds one PCSA signature per attribute
	// (parallel to Attributes) over that attribute's value set. They
	// power data-based attribute similarity (§3 allows Match to use
	// schema-based or data-based measures): the estimated Jaccard
	// overlap of two attributes' value sets. Nil means the source does
	// not export value signatures.
	AttrSignatures []*pcsa.Sketch `json:"attrSignatures,omitempty"`
	// Characteristics holds per-source scalar characteristics by name
	// (e.g. "mttf", "latency", "fee"). Values are positive reals of any
	// magnitude (§5).
	Characteristics map[string]float64 `json:"characteristics,omitempty"`
}

// Characteristic returns the named characteristic and whether the source
// defines it.
func (s *Source) Characteristic(name string) (float64, bool) {
	v, ok := s.Characteristics[name]
	return v, ok
}

// Cooperative reports whether the source provided a data signature.
func (s *Source) Cooperative() bool { return s.Signature != nil }

// A Universe is the set of all data sources from which µBE chooses a
// solution (§2.1). The paper targets hundreds to a few thousands of
// sources.
type Universe struct {
	Sources []Source `json:"sources"`
}

// N returns the number of sources in the universe.
func (u *Universe) N() int { return len(u.Sources) }

// Source returns the source with the given ID.
func (u *Universe) Source(id int) *Source { return &u.Sources[id] }

// AttrName returns the name of the referenced attribute.
func (u *Universe) AttrName(r AttrRef) string {
	return u.Sources[r.Source].Attributes[r.Attr]
}

// ValidRef reports whether r points at an existing attribute.
func (u *Universe) ValidRef(r AttrRef) bool {
	return r.Source >= 0 && r.Source < len(u.Sources) &&
		r.Attr >= 0 && r.Attr < len(u.Sources[r.Source].Attributes)
}

// TotalCardinality returns Σ_{t∈U} |t|, the denominator of the Card QEF.
func (u *Universe) TotalCardinality() int64 {
	var sum int64
	for i := range u.Sources {
		sum += u.Sources[i].Cardinality
	}
	return sum
}

// NumAttributes returns the total number of attributes across all schemas.
func (u *Universe) NumAttributes() int {
	n := 0
	for i := range u.Sources {
		n += len(u.Sources[i].Attributes)
	}
	return n
}

// Validate checks structural invariants: dense in-order IDs, non-empty
// schemas, non-negative cardinalities, and pairwise-compatible signatures.
// It is Source.Check on every source in order, each against the first
// tuple and attribute signatures of the sources before it.
func (u *Universe) Validate() error {
	var sig, attrSig *pcsa.Sketch
	for i := range u.Sources {
		s := &u.Sources[i]
		if err := s.Check(i, sig, attrSig); err != nil {
			return err
		}
		if sig == nil {
			sig = s.Signature
		}
		if attrSig == nil && len(s.AttrSignatures) > 0 {
			attrSig = s.AttrSignatures[0]
		}
	}
	return nil
}

// Check is Universe.Validate's test of one source at index i: its ID is
// i, its schema is non-empty, its cardinality and characteristics are
// non-negative, and its attribute signatures are one non-nil sketch per
// attribute. sig and attrSig are reference tuple and attribute
// signatures that the source's own must be compatible with; nil accepts
// any, and a source's attribute signatures must still agree with each
// other. Because compatibility is equality of parameters, a universe
// whose sources all pass Check against its first signatures is valid.
func (s *Source) Check(i int, sig, attrSig *pcsa.Sketch) error {
	if s.ID != i {
		return fmt.Errorf("model: source %d has ID %d; IDs must be dense and in order", i, s.ID)
	}
	if len(s.Attributes) == 0 {
		return fmt.Errorf("model: source %d (%s) has an empty schema", i, s.Name)
	}
	if s.Cardinality < 0 {
		return fmt.Errorf("model: source %d (%s) has negative cardinality", i, s.Name)
	}
	for _, c := range s.Characteristics {
		if c < 0 {
			return fmt.Errorf("model: source %d (%s) has a negative characteristic; §5 requires positive reals", i, s.Name)
		}
	}
	if s.Signature != nil && sig != nil && !sig.Compatible(s.Signature) {
		return fmt.Errorf("model: source %d (%s) signature parameters differ from earlier sources", i, s.Name)
	}
	if s.AttrSignatures != nil {
		if len(s.AttrSignatures) != len(s.Attributes) {
			return fmt.Errorf("model: source %d (%s) has %d attribute signatures for %d attributes", i, s.Name, len(s.AttrSignatures), len(s.Attributes))
		}
		for a, as := range s.AttrSignatures {
			if as == nil {
				return fmt.Errorf("model: source %d (%s) attribute %d has a nil signature; omit AttrSignatures entirely instead", i, s.Name, a)
			}
			if attrSig == nil {
				attrSig = as
			} else if !attrSig.Compatible(as) {
				return fmt.Errorf("model: source %d (%s) attribute signature parameters differ from earlier sources", i, s.Name)
			}
		}
	}
	return nil
}

// A GA (Global Attribute) is an attribute of the mediated schema: a set of
// attributes from different sources that match each other and map to the
// same (unnamed) mediated-schema attribute. Definition 1: a GA is valid iff
// it is non-empty and contains at most one attribute from any source.
//
// A GA is stored as a sorted, duplicate-free slice of AttrRefs; use NewGA
// to construct one in canonical form.
type GA []AttrRef

// NewGA returns the canonical (sorted, deduplicated) GA over refs.
func NewGA(refs ...AttrRef) GA {
	g := make(GA, len(refs))
	copy(g, refs)
	slices.SortFunc(g, AttrRef.Compare)
	out := g[:0]
	for i, r := range g {
		if i == 0 || g[i-1] != r {
			out = append(out, r)
		}
	}
	return out
}

// Valid implements Definition 1: g ≠ ∅ and no two attributes of g come
// from the same source.
func (g GA) Valid() bool {
	if len(g) == 0 {
		return false
	}
	for i := 1; i < len(g); i++ {
		if !g[i-1].Less(g[i]) {
			return false // unsorted or duplicate: not canonical
		}
		if g[i-1].Source == g[i].Source {
			return false
		}
	}
	return true
}

// Contains reports whether g contains the given attribute reference.
func (g GA) Contains(r AttrRef) bool {
	i := sort.Search(len(g), func(i int) bool { return !g[i].Less(r) })
	return i < len(g) && g[i] == r
}

// ContainsAll reports whether every attribute of h is in g (h ⊆ g).
func (g GA) ContainsAll(h GA) bool {
	for _, r := range h {
		if !g.Contains(r) {
			return false
		}
	}
	return true
}

// Intersects reports whether g and h share any attribute.
func (g GA) Intersects(h GA) bool {
	i, j := 0, 0
	for i < len(g) && j < len(h) {
		switch {
		case g[i] == h[j]:
			return true
		case g[i].Less(h[j]):
			i++
		default:
			j++
		}
	}
	return false
}

// TouchesSource reports whether g contains an attribute of source id
// (g ∩ s ≠ ∅ in Definition 2).
func (g GA) TouchesSource(id int) bool {
	for _, r := range g {
		if r.Source == id {
			return true
		}
		if r.Source > id {
			return false // sorted by source
		}
	}
	return false
}

// Sources returns the sorted IDs of the sources g draws attributes from.
// For a valid GA this has the same length as g.
func (g GA) Sources() []int {
	ids := make([]int, 0, len(g))
	for _, r := range g {
		if len(ids) == 0 || ids[len(ids)-1] != r.Source {
			ids = append(ids, r.Source)
		}
	}
	return ids
}

// Merge returns the canonical union of g and h.
func (g GA) Merge(h GA) GA {
	out := make(GA, 0, len(g)+len(h))
	out = append(out, g...)
	out = append(out, h...)
	return NewGA(out...)
}

// Equal reports whether two canonical GAs contain the same attributes.
func (g GA) Equal(h GA) bool {
	if len(g) != len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// A MediatedSchema is a set of GAs (Definition 2). µBE generates mediated
// schemas automatically; the GAs are not named.
type MediatedSchema struct {
	GAs []GA `json:"gas"`
}

// Valid reports whether every GA is valid and the GAs are pairwise
// disjoint (the first condition of Definition 2: an attribute cannot
// express two different concepts).
func (m *MediatedSchema) Valid() bool {
	n := 0
	for _, g := range m.GAs {
		if !g.Valid() {
			return false
		}
		n += len(g)
	}
	if len(m.GAs) < 2 {
		return true
	}
	return disjoint(m.GAs, n)
}

// disjoint reports whether no attribute occurs in two of the n attribute
// slots of gas. It inserts every attribute into an open-addressing table
// twice its size; up to disjointStack attributes the table lives on the
// stack, so the common case allocates nothing.
func disjoint(gas []GA, n int) bool {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	var stack [2 * disjointStack]uint64
	table := stack[:]
	if size <= len(stack) {
		table = stack[:size]
	} else {
		table = make([]uint64, size)
	}
	mask := uint64(size - 1)
	for _, g := range gas {
		for _, r := range g {
			// Slot value 0 means empty, so store key+1; an attribute
			// whose fields do not fit 32 bits makes the packing unsafe.
			if uint64(r.Source) > math.MaxUint32 || uint64(r.Attr) > math.MaxUint32-1 {
				return disjointSorted(gas, n)
			}
			v := (uint64(r.Source)<<32 | uint64(r.Attr)) + 1
			for h := ((v * 0x9E3779B97F4A7C15) >> 32) & mask; ; h = (h + 1) & mask {
				if table[h] == 0 {
					table[h] = v
					break
				}
				if table[h] == v {
					return false
				}
			}
		}
	}
	return true
}

// disjointStack is the attribute count up to which disjoint's table fits
// on the stack.
const disjointStack = 256

// disjointSorted is disjoint for attributes that do not pack into 64 bits:
// a shared attribute shows up as two equal neighbors once all are sorted.
func disjointSorted(gas []GA, n int) bool {
	refs := make([]AttrRef, 0, n)
	for _, g := range gas {
		refs = append(refs, g...)
	}
	slices.SortFunc(refs, AttrRef.Compare)
	for i := 1; i < len(refs); i++ {
		if refs[i] == refs[i-1] {
			return false
		}
	}
	return true
}

// ValidOn implements Definition 2 in full: m is valid on the given sources
// iff it is Valid and every listed source is touched by at least one GA.
func (m *MediatedSchema) ValidOn(sources []int) bool {
	if !m.Valid() {
		return false
	}
	for _, id := range sources {
		touched := false
		for _, g := range m.GAs {
			if g.TouchesSource(id) {
				touched = true
				break
			}
		}
		if !touched {
			return false
		}
	}
	return true
}

// Subsumes implements Definition 3: m subsumes other (other ⊑ m) iff every
// GA of other is contained in some GA of m.
func (m *MediatedSchema) Subsumes(other *MediatedSchema) bool {
	for _, g2 := range other.GAs {
		found := false
		for _, g1 := range m.GAs {
			if g1.ContainsAll(g2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Covering returns the index of the GA containing r, or -1.
func (m *MediatedSchema) Covering(r AttrRef) int {
	for i, g := range m.GAs {
		if g.Contains(r) {
			return i
		}
	}
	return -1
}

// NumAttributes returns the total number of attributes across all GAs.
func (m *MediatedSchema) NumAttributes() int {
	n := 0
	for _, g := range m.GAs {
		n += len(g)
	}
	return n
}

// Clone returns a deep copy.
func (m *MediatedSchema) Clone() *MediatedSchema {
	c := &MediatedSchema{GAs: make([]GA, len(m.GAs))}
	for i, g := range m.GAs {
		c.GAs[i] = append(GA(nil), g...)
	}
	return c
}

// Constraints collects the user guidance for one µBE iteration (§2.4):
// source constraints C (sources that must be part of the solution), GA
// constraints G (a partial mediated schema the output must subsume), and —
// as a natural extension of the paper's "permanently tabu regions" — an
// exclusion list of sources that must never be selected.
type Constraints struct {
	Sources []int `json:"sources,omitempty"`
	GAs     []GA  `json:"gas,omitempty"`
	Exclude []int `json:"exclude,omitempty"`
}

// ImpliedSources returns the sorted set of sources that must be in the
// solution: the explicit source constraints plus, per §2.4, every source
// contributing an attribute to a GA constraint.
func (c *Constraints) ImpliedSources() []int {
	set := make(map[int]struct{}, len(c.Sources))
	for _, id := range c.Sources {
		set[id] = struct{}{}
	}
	for _, g := range c.GAs {
		for _, r := range g {
			set[r.Source] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Validate checks the constraints against a universe: IDs and refs in
// range, GA constraints valid and pairwise disjoint (they are a partial
// mediated schema), and no source both required and excluded.
func (c *Constraints) Validate(u *Universe) error {
	for _, id := range c.Sources {
		if id < 0 || id >= u.N() {
			return fmt.Errorf("model: source constraint %d out of range [0,%d)", id, u.N())
		}
	}
	for _, id := range c.Exclude {
		if id < 0 || id >= u.N() {
			return fmt.Errorf("model: excluded source %d out of range [0,%d)", id, u.N())
		}
	}
	partial := MediatedSchema{GAs: c.GAs}
	if !partial.Valid() {
		return fmt.Errorf("model: GA constraints must form a valid partial mediated schema (valid, pairwise-disjoint GAs)")
	}
	for _, g := range c.GAs {
		for _, r := range g {
			if !u.ValidRef(r) {
				return fmt.Errorf("model: GA constraint references nonexistent attribute %+v", r)
			}
		}
	}
	excluded := make(map[int]struct{}, len(c.Exclude))
	for _, id := range c.Exclude {
		excluded[id] = struct{}{}
	}
	for _, id := range c.ImpliedSources() {
		if _, bad := excluded[id]; bad {
			return fmt.Errorf("model: source %d is both required and excluded", id)
		}
	}
	return nil
}

// Clone returns a deep copy of the constraints.
func (c *Constraints) Clone() *Constraints {
	n := &Constraints{
		Sources: append([]int(nil), c.Sources...),
		Exclude: append([]int(nil), c.Exclude...),
		GAs:     make([]GA, len(c.GAs)),
	}
	for i, g := range c.GAs {
		n.GAs[i] = append(GA(nil), g...)
	}
	return n
}

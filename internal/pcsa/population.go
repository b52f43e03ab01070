package pcsa

import "errors"

// A Population holds what an edit of a fixed set of member sketches needs
// to estimate its union: two bitmaps, any with the bits set in at least
// one member (the members' union) and multi with the bits set in at least
// two. Dropping member d clears exactly the bits d alone holds, d &^ multi,
// so the union of the members less d plus one more sketch a is
//
//	any &^ (d &^ multi) | a
//
// one word operation per bitmap and bit-identical to Union over the edited
// member list. Where a UnionCounter keeps a count per bit to follow a
// long sequence of edits, a Population answers single edits of one fixed
// set at two words per bitmap.
//
// The zero value is an empty population; the first Add fixes the
// parameters. A Population is read-only once built, so concurrent
// EditEstimate calls may share one.
type Population struct {
	nmaps int
	seed  uint64
	n     int
	any   []uint64
	multi []uint64
	none  []uint64 // all zero: the bitmaps of an absent edit
}

// Add folds one member sketch into the population.
func (p *Population) Add(t *Sketch) error {
	if t == nil {
		return errors.New("pcsa: add of nil sketch to population")
	}
	if p.n == 0 {
		p.nmaps, p.seed = t.nmaps, t.seed
		words := make([]uint64, 3*t.nmaps)
		p.any, p.multi, p.none = words[:t.nmaps], words[t.nmaps:2*t.nmaps], words[2*t.nmaps:]
	} else if t.nmaps != p.nmaps || t.seed != p.seed {
		return errors.New("pcsa: add of incompatible sketch to population")
	}
	multi, maps := p.multi[:len(p.any)], t.maps[:len(p.any)]
	for i, a := range p.any {
		multi[i] |= a & maps[i]
		p.any[i] = a | maps[i]
	}
	p.n++
	return nil
}

// EditEstimate returns the PCSA estimate of the union of the members less
// drop plus add, bit-identical to Union(...).Estimate() over that list,
// and 0 when the list is empty. A nil drop or add is no such edit; a
// non-nil drop must be one of the members, and add must not be.
func (p *Population) EditEstimate(drop, add *Sketch) (float64, error) {
	if p.n == 0 {
		switch {
		case drop != nil:
			return 0, errors.New("pcsa: drop from an empty population")
		case add == nil:
			return 0, nil
		}
		return add.Estimate(), nil
	}
	d, a := p.none, p.none
	if drop != nil {
		if drop.nmaps != p.nmaps || drop.seed != p.seed {
			return 0, errors.New("pcsa: drop of incompatible sketch from population")
		}
		d = drop.maps
	}
	if add != nil {
		if add.nmaps != p.nmaps || add.seed != p.seed {
			return 0, errors.New("pcsa: add of incompatible sketch to population edit")
		}
		a = add.maps
	}
	multi, d, a := p.multi[:len(p.any)], d[:len(p.any)], a[:len(p.any)]
	sum, set := 0, uint64(0)
	for i, w := range p.any {
		w = w&^(d[i]&^multi[i]) | a[i]
		sum += lowestZero(w)
		set |= w
	}
	if set == 0 {
		return 0, nil // the edited union is empty, as Estimate rules
	}
	return estimate(sum, p.nmaps), nil
}

// Checksum folds the population's parameters and bitmaps into one 64-bit
// value, as Sketch.Checksum does for a sketch.
func (p *Population) Checksum() uint64 {
	h := splitmix64(uint64(p.nmaps)<<32 ^ p.seed ^ uint64(p.n)<<48)
	for i, w := range p.any {
		h = splitmix64(h ^ w)
		h = splitmix64(h ^ p.multi[i])
	}
	return h
}

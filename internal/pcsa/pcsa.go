// Package pcsa implements Probabilistic Counting with Stochastic Averaging
// (Flajolet & Martin, JCSS 1985), the distinct-count sketch µBE uses to
// estimate the cardinality of unions of data sources without accessing
// their data (paper §4).
//
// Each data source computes a small hash signature (a Sketch) over its
// tuples once. µBE caches these signatures; the cardinality of the union of
// any set of sources is then estimated by bitwise-ORing their signatures
// and running the PCSA estimator on the result. The OR of PCSA signatures
// is exactly the PCSA signature of the union of the underlying multisets,
// so union estimation needs no data access at all.
package pcsa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"ube/internal/ubedebug"
)

// phi is the Flajolet–Martin magic constant 0.77351...: the expected value
// of 2^R for a bitmap that observed n distinct values is ~ phi*n.
const phi = 0.7735162909

// kappa drives the small-range bias correction E = m/phi*(2^A - 2^(-kappa*A)).
// The correction (Scheuermann & Mauve's refinement of the FM estimator)
// removes the systematic overestimate when n is small relative to the
// number of bitmaps; it vanishes exponentially as A grows.
const kappa = 1.75

// wordBits is the length of each FM bitmap. 64 bits supports distinct
// counts far beyond any realistic source (2^64 / nmaps).
const wordBits = 64

// A Sketch is a PCSA signature: nmaps FM bitmaps of 64 bits each, filled by
// stochastic averaging. The zero value is unusable; construct with New.
//
// Two sketches are compatible (can be unioned or compared) iff they were
// created with the same nmaps and seed.
type Sketch struct {
	nmaps int
	seed  uint64
	shift uint // log2(nmaps)
	maps  []uint64
}

// DefaultMaps is the default number of bitmaps. The standard error of PCSA
// is about 0.78/sqrt(nmaps); 256 maps gives ~4.9%, comfortably inside the
// 7% worst-case error the paper reports, at a cost of 2 KiB per source —
// "a few bytes or kilobytes" as §4 promises.
const DefaultMaps = 256

// New returns an empty sketch with the given number of bitmaps, which must
// be a power of two in [1, 65536]. Seed 0 is a valid seed; sources that
// should be union-compatible must share both parameters.
func New(nmaps int, seed uint64) (*Sketch, error) {
	if err := checkNmaps(nmaps); err != nil {
		return nil, err
	}
	return newSketch(nmaps, seed), nil
}

// checkNmaps is New's parameter check, for callers that must refuse a
// bad nmaps before they allocate anything.
func checkNmaps(nmaps int) error {
	if nmaps < 1 || nmaps > 1<<16 || nmaps&(nmaps-1) != 0 {
		return fmt.Errorf("pcsa: nmaps must be a power of two in [1,65536], got %d", nmaps)
	}
	return nil
}

// newSketch is New for an nmaps that checkNmaps accepted.
func newSketch(nmaps int, seed uint64) *Sketch {
	return &Sketch{
		nmaps: nmaps,
		seed:  seed,
		shift: uint(bits.TrailingZeros(uint(nmaps))),
		maps:  make([]uint64, nmaps),
	}
}

// MustNew is New for parameters known to be valid; it panics otherwise.
func MustNew(nmaps int, seed uint64) *Sketch {
	s, err := New(nmaps, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// NumMaps reports the number of FM bitmaps.
func (s *Sketch) NumMaps() int { return s.nmaps }

// Seed reports the hash seed the sketch was created with.
func (s *Sketch) Seed() uint64 { return s.seed }

// SizeBytes reports the in-memory size of the signature payload.
func (s *Sketch) SizeBytes() int { return s.nmaps * 8 }

// splitmix64 is a strong 64-bit finalizer/mixer (Vigna). It is used both to
// mix the seed into raw hashes and to hash integer tuple IDs directly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddHash records one tuple given its 64-bit content hash. Duplicate tuples
// (equal hashes) are absorbed: a sketch depends only on the set of distinct
// hashes it has seen, never on multiplicity or order.
func (s *Sketch) AddHash(h uint64) {
	h = splitmix64(h ^ s.seed)
	bucket := h & uint64(s.nmaps-1)
	rest := h >> s.shift
	rho := uint(wordBits - 1)
	if rest != 0 {
		rho = uint(bits.TrailingZeros64(rest))
		if rho > wordBits-1 {
			rho = wordBits - 1
		}
	}
	if ubedebug.Enabled {
		ubedebug.Assert(bucket < uint64(s.nmaps), "pcsa: bucket %d out of range for %d maps", bucket, s.nmaps)
		ubedebug.Assert(rho < wordBits, "pcsa: rho %d exceeds bitmap width %d", rho, wordBits)
	}
	s.maps[bucket] |= 1 << rho
}

// AddUint64 records an integer-identified tuple (e.g. a synthetic tuple ID).
func (s *Sketch) AddUint64(id uint64) { s.AddHash(splitmix64(id)) }

// AddTuple records a tuple given as a sequence of field strings, hashing it
// with FNV-1a. Field boundaries are significant: ("ab","c") and ("a","bc")
// hash differently.
func (s *Sketch) AddTuple(fields ...string) {
	h := fnv.New64a()
	var sep [1]byte
	for i, f := range fields {
		if i > 0 {
			sep[0] = 0
			h.Write(sep[:])
		}
		// Field lengths are encoded so boundaries can't alias.
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(f)))
		h.Write(lenBuf[:])
		h.Write([]byte(f))
	}
	s.AddHash(h.Sum64())
}

// Compatible reports whether two sketches share parameters and may be
// unioned or compared.
func (s *Sketch) Compatible(t *Sketch) bool {
	return t != nil && s.nmaps == t.nmaps && s.seed == t.seed
}

// UnionInto ORs t into s, making s the signature of the union of both
// underlying tuple sets. It returns an error on incompatible parameters.
func (s *Sketch) UnionInto(t *Sketch) error {
	if !s.Compatible(t) {
		return errors.New("pcsa: union of incompatible sketches")
	}
	for i, w := range t.maps {
		s.maps[i] |= w
	}
	return nil
}

// Union returns the signature of the union of all the given sketches. It
// returns an error if the slice is empty or the sketches are incompatible.
func Union(sketches ...*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, errors.New("pcsa: union of no sketches")
	}
	u := sketches[0].Clone()
	for _, t := range sketches[1:] {
		if err := u.UnionInto(t); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Checksum folds the sketch's parameters and bitmap payload into one
// 64-bit value. Equal checksums for unequal sketches are possible but
// vanishingly unlikely; the ubedebug snapshot-immutability audit uses it
// to detect mutation of state that is contractually frozen.
func (s *Sketch) Checksum() uint64 {
	h := splitmix64(uint64(s.nmaps)<<32 ^ s.seed)
	for _, w := range s.maps {
		h = splitmix64(h ^ w)
	}
	return h
}

// Clone returns an independent copy of s.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.maps = make([]uint64, len(s.maps))
	copy(c.maps, s.maps)
	return &c
}

// Reset clears the sketch to empty.
func (s *Sketch) Reset() {
	for i := range s.maps {
		s.maps[i] = 0
	}
}

// Empty reports whether the sketch has seen no tuples.
func (s *Sketch) Empty() bool {
	for _, w := range s.maps {
		if w != 0 {
			return false
		}
	}
	return true
}

// Estimate returns the PCSA estimate of the number of distinct tuples the
// sketch has observed: (m/phi) * (2^A - 2^(-kappa*A)) where A is the mean,
// over the m bitmaps, of the position of the lowest unset bit.
func (s *Sketch) Estimate() float64 {
	if s.Empty() {
		return 0
	}
	sum := 0
	for _, w := range s.maps {
		sum += lowestZero(w)
	}
	return estimate(sum, s.nmaps)
}

// estimate is the PCSA estimator on the sum, over nmaps bitmaps, of their
// lowest-unset-bit positions. Every estimate goes through it, so two
// paths that build the same bitmaps return the same float bits.
func estimate(sum, nmaps int) float64 {
	a := float64(sum) / float64(nmaps)
	e := float64(nmaps) / phi * (math.Pow(2, a) - math.Pow(2, -kappa*a))
	if e < 0 {
		return 0
	}
	return e
}

// EstimateInt returns Estimate rounded to the nearest integer.
func (s *Sketch) EstimateInt() int64 { return int64(math.Round(s.Estimate())) }

// lowestZero returns the index of the least-significant zero bit of w
// (the FM statistic R for one bitmap).
func lowestZero(w uint64) int {
	return bits.TrailingZeros64(^w)
}

package cluster

import (
	"slices"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
)

// seedChain is one agenda carried through churn the way the engine
// carries it: the agenda, plus the remap composed from every batch since
// it was built (nil while it is current).
type seedChain struct {
	sp    *SeedPairs
	remap []int
}

// then composes the chain's pending remap with a later batch's.
func (c *seedChain) then(next []int) {
	if c.remap == nil {
		c.remap = append([]int(nil), next...)
		return
	}
	for i, id := range c.remap {
		if id >= 0 {
			c.remap[i] = next[id]
		}
	}
}

// FuzzSeedPairsExtend checks that patching the round-1 agenda through
// churn is the same as building it over the churned universe. The input
// is read as a little program over a pool of attribute names, some of
// them near-duplicates: add a source (one to four names), remove one,
// update one (a no-op for the agenda, but its batch still composes), or
// solve. A solve patches each carried agenda — one over the dense matrix,
// one over the θ-sparse table — through the remaps composed since its
// last solve, and the patch must be byte-equal to BuildSeedPairs over
// the current universe and leave the agenda it patched untouched.
func FuzzSeedPairsExtend(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 3, 1, 0, 0, 7, 8, 3}, uint8(35))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1, 1, 3, 0, 9, 9, 2, 0, 3}, uint8(0))
	f.Add([]byte{0, 2, 4, 6, 8, 0, 1, 3, 5, 7, 3, 2, 1, 1, 0, 0, 0, 1, 1, 3}, uint8(20))
	f.Add([]byte{0, 10, 11, 0, 12, 13, 1, 0, 0, 14, 15, 1, 1, 3}, uint8(59))
	words := []string{
		"title", "book title", "title id", "author", "author name", "authors",
		"isbn", "isbn code", "price", "list price", "year", "publication year",
		"publisher", "publisher name", "format", "edition",
	}
	f.Fuzz(func(t *testing.T, prog []byte, thetaPct uint8) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		theta := 0.3 + float64(thetaPct%60)/100
		u := &model.Universe{}
		sim := strsim.NewCache(nil)
		var m *strsim.Matrix
		var dense, sparse seedChain
		for pc := 0; pc < len(prog); pc++ {
			op := prog[pc] % 4
			arg := 0
			if pc+1 < len(prog) {
				arg = int(prog[pc+1])
			}
			n := len(u.Sources)
			var remap []int
			switch {
			case op == 0: // add
				pc++
				attrs := make([]string, 1+arg%4)
				for a := range attrs {
					pc++
					if pc < len(prog) {
						attrs[a] = words[int(prog[pc])%len(words)]
					} else {
						attrs[a] = words[a]
					}
				}
				u.Sources = append(u.Sources, model.Source{ID: n, Name: "s", Attributes: attrs, Cardinality: 100})
				remap = identity(n)
			case op == 1 && n > 0: // remove
				pc++
				victim := arg % n
				u.Sources = append(u.Sources[:victim:victim], u.Sources[victim+1:]...)
				for i := range u.Sources {
					u.Sources[i].ID = i
				}
				remap = identity(n)
				remap[victim] = -1
				for i := victim + 1; i < n; i++ {
					remap[i] = i - 1
				}
			case op == 2 && n > 0: // update
				pc++
				u.Sources[arg%n].Cardinality++
				remap = identity(n)
			case op == 3: // solve
				for i := range u.Sources {
					for _, a := range u.Sources[i].Attributes {
						sim.Intern(a)
					}
				}
				var err error
				if m, err = sim.ExtendMatrix(m); err != nil {
					t.Fatal(err)
				}
				st, _, err := sim.BuildSparse(theta, strsim.BlockConfig{})
				if err != nil {
					t.Fatal(err)
				}
				ids := buildNameIDs(u, sim)
				checkExtend(t, &dense, u, ids, m.Neighbors(theta), m, theta)
				checkExtend(t, &sparse, u, ids, st.Neighbors(theta), st, theta)
			}
			if remap != nil {
				for _, c := range []*seedChain{&dense, &sparse} {
					if c.sp != nil {
						c.then(remap)
					}
				}
			}
		}
	})
}

func identity(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// checkExtend patches the chain's agenda (or builds it, on the first
// solve) and compares it to a full build.
func checkExtend(t *testing.T, c *seedChain, u *model.Universe, ids, nbrs [][]int, scores strsim.Scorer, theta float64) {
	t.Helper()
	var prevPairs []seedPair
	var prevStart []int32
	if c.sp != nil {
		prevPairs, prevStart = slices.Clone(c.sp.pairs), slices.Clone(c.sp.start)
	}
	got := ExtendSeedPairs(c.sp, c.remap, u, ids, nbrs, scores, theta)
	want := BuildSeedPairs(u, ids, nbrs, scores, theta)
	if got == nil || want == nil {
		t.Fatalf("agenda missing: patched %v, built %v", got != nil, want != nil)
	}
	if !slices.Equal(got.pairs, want.pairs) || !slices.Equal(got.start, want.start) ||
		got.nSrc != want.nSrc || got.theta != want.theta || got.scores != want.scores {
		t.Fatalf("patched agenda (%d pairs over %d sources) differs from a full build (%d pairs over %d sources)",
			got.Len(), got.nSrc, want.Len(), want.nSrc)
	}
	if c.sp != nil && (!slices.Equal(c.sp.pairs, prevPairs) || !slices.Equal(c.sp.start, prevStart)) {
		t.Fatal("ExtendSeedPairs modified the agenda it patched")
	}
	c.sp, c.remap = got, nil
}

package strsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// dynCanonical renders the rows of the given live name IDs in an
// ID-space-independent form: normalized name -> sorted list of
// "neighborName:float32bits" entries. Two tables over different intern
// spaces are bit-identical on the live names iff these maps are equal.
func dynCanonical(c *Cache, sp *SparseScores, live []int) map[string][]string {
	out := make(map[string][]string, len(live))
	for _, id := range live {
		var row []string
		for k := sp.start[id]; k < sp.start[id+1]; k++ {
			row = append(row, fmt.Sprintf("%s:%08x", c.NameOf(int(sp.cols[k])), math.Float32bits(sp.vals[k])))
		}
		sort.Strings(row)
		out[c.NameOf(id)] = row
	}
	return out
}

// freshReference builds a from-scratch cache holding exactly the given
// names and batch-builds its sparse table — the differential oracle.
func freshReference(measure func() Measure, names []string, theta float64) (*Cache, *SparseScores) {
	c := NewCache(measure())
	for _, n := range names {
		c.Intern(n)
	}
	sp, _, err := c.BuildSparse(theta, BlockConfig{})
	if err != nil {
		panic(err)
	}
	return c, sp
}

// TestDynSparseFullVocabBitIdentical: inserting every interned name into
// a DynSparse and freezing yields CSR arrays byte-identical to
// BuildSparse on the same cache — same ID space, so the comparison is
// raw, not canonicalized. Covers both measures and several θ.
func TestDynSparseFullVocabBitIdentical(t *testing.T) {
	for _, meas := range []struct {
		name string
		mk   func() Measure
	}{
		{"jaccard3", func() Measure { return NewNGramJaccard(3) }},
		{"dice3", func() Measure { return NewNGramDice(3) }},
	} {
		t.Run("prefix/"+meas.name, func(t *testing.T) {
			c := NewCache(meas.mk())
			for _, name := range blockVocab(400, 3) {
				c.Intern(name)
			}
			for _, theta := range []float64{0.5, 0.65, 0.9} {
				want, _, err := c.BuildSparse(theta, BlockConfig{})
				if err != nil {
					t.Fatalf("θ=%v: BuildSparse: %v", theta, err)
				}
				d, err := NewDynSparse(c, theta)
				if err != nil {
					t.Fatalf("θ=%v: NewDynSparse: %v", theta, err)
				}
				for id := 0; id < c.Len(); id++ {
					if err := d.Insert(id); err != nil {
						t.Fatalf("θ=%v: Insert(%d): %v", theta, id, err)
					}
				}
				got := d.Freeze()
				if !reflect.DeepEqual(got.start, want.start) ||
					!reflect.DeepEqual(got.cols, want.cols) ||
					!reflect.DeepEqual(got.vals, want.vals) {
					t.Fatalf("θ=%v: frozen CSR differs from batch build (nnz %d vs %d)", theta, got.NNZ(), want.NNZ())
				}
				if got.Theta() != theta || got.Len() != c.Len() {
					t.Fatalf("θ=%v: frozen table metadata %v/%d", theta, got.Theta(), got.Len())
				}
			}
		})
	}
}

// TestDynSparseDifferentialChurn drives a 200-step random insert/delete
// schedule and checks, after every step, that the live rows of the
// frozen incremental table are bit-identical (canonicalized by name) to
// a fresh batch build over exactly the live names — the tentpole
// index-level differential.
func TestDynSparseDifferentialChurn(t *testing.T) {
	const seed = 23
	vocab := blockVocab(250, seed)
	t.Run("prefix", func(t *testing.T) {
		theta := 0.65
		mk := func() Measure { return NewNGramJaccard(3) }
		c := NewCache(mk())
		d, err := NewDynSparse(c, theta)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var live []int // intern IDs, ascending
		liveSet := make(map[int]bool)
		steps := 200
		if testing.Short() {
			steps = 60
		}
		for step := 0; step < steps; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				id := live[i]
				if err := d.Delete(id); err != nil {
					t.Fatalf("seed %d step %d: Delete(%d): %v", seed, step, id, err)
				}
				live = append(live[:i], live[i+1:]...)
				delete(liveSet, id)
			} else {
				id := c.Intern(vocab[rng.Intn(len(vocab))])
				if liveSet[id] {
					// Same normalized name already live; re-inserting
					// must refuse without corrupting state.
					if err := d.Insert(id); err == nil {
						t.Fatalf("seed %d step %d: double Insert(%d) succeeded", seed, step, id)
					}
					continue
				}
				if err := d.Insert(id); err != nil {
					t.Fatalf("seed %d step %d: Insert(%d): %v", seed, step, id, err)
				}
				at := sort.SearchInts(live, id)
				live = append(live, 0)
				copy(live[at+1:], live[at:])
				live[at] = id
				liveSet[id] = true
			}
			if d.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len=%d want %d", seed, step, d.Len(), len(live))
			}
			frozen := d.Freeze()
			got := dynCanonical(c, frozen, live)
			names := make([]string, len(live))
			for i, id := range live {
				names[i] = c.NameOf(id)
			}
			fc, fsp := freshReference(mk, names, theta)
			fresh := make([]int, fc.Len())
			for i := range fresh {
				fresh[i] = i
			}
			want := dynCanonical(fc, fsp, fresh)
			if !reflect.DeepEqual(got, want) {
				for name, row := range want {
					if !reflect.DeepEqual(got[name], row) {
						t.Errorf("seed %d step %d: row %q: incremental %v, fresh %v", seed, step, name, got[name], row)
					}
				}
				t.Fatalf("seed %d step %d: incremental table diverged from fresh build (%d live names)", seed, step, len(live))
			}
		}
	})
}

// TestDynSparseInsertDeleteNoOp: inserting then deleting a name restores
// the exact prior frozen state — the index-level metamorphic property.
func TestDynSparseInsertDeleteNoOp(t *testing.T) {
	c := NewCache(NewNGramJaccard(3))
	d, err := NewDynSparse(c, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	vocab := blockVocab(60, 5)
	var live []int
	for _, n := range vocab[:40] {
		id := c.Intern(n)
		if d.Contains(id) {
			continue
		}
		if err := d.Insert(id); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	sort.Ints(live)
	before := dynCanonical(c, d.Freeze(), live)
	extra := c.Intern(vocab[50])
	if err := d.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(extra); err != nil {
		t.Fatal(err)
	}
	after := dynCanonical(c, d.Freeze(), live)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("insert-then-delete changed the live rows")
	}
}

// TestDynSparseVocabTracksLiveNames: after heavy churn the index holds
// exactly the grams of its live names, and re-inserting deleted names,
// which reuses released gram IDs, still freezes to the batch build.
func TestDynSparseVocabTracksLiveNames(t *testing.T) {
	const theta = 0.65
	mk := func() Measure { return NewNGramJaccard(3) }
	c := NewCache(mk())
	d, err := NewDynSparse(c, theta)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, n := range blockVocab(2000, 41) {
		id := c.Intern(n)
		if d.Contains(id) {
			continue
		}
		if err := d.Insert(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var live, dead []int
	for i, id := range ids {
		if i%10 == 0 {
			live = append(live, id)
			continue
		}
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, id)
	}
	check := func(stage string) {
		t.Helper()
		distinct := make(map[string]struct{})
		var names []string
		for _, id := range live {
			names = append(names, c.NameOf(id))
			for g := range NGrams(c.NameOf(id), 3) {
				distinct[g] = struct{}{}
			}
		}
		if got := len(d.grams.ids); got != len(distinct) {
			t.Fatalf("%s: %d interned grams for %d live names holding %d distinct grams", stage, got, len(live), len(distinct))
		}
		sort.Ints(live)
		rc, ref := freshReference(mk, names, theta)
		var refLive []int
		for _, n := range names {
			refLive = append(refLive, rc.Intern(n))
		}
		if !reflect.DeepEqual(dynCanonical(c, d.Freeze(), live), dynCanonical(rc, ref, refLive)) {
			t.Fatalf("%s: incremental table diverged from fresh build", stage)
		}
	}
	check("after deletes")
	for _, id := range dead[:500] {
		if err := d.Insert(id); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	check("after re-inserts")
}

// TestDynSparseErrors covers the constructor and mutation refusals.
func TestDynSparseErrors(t *testing.T) {
	c := NewCache(NewNGramJaccard(3))
	if _, err := NewDynSparse(c, 0); err == nil {
		t.Fatal("θ=0 accepted")
	}
	if _, err := NewDynSparse(c, 1.5); err == nil {
		t.Fatal("θ=1.5 accepted")
	}
	if _, err := NewDynSparse(NewCache(TokenCosine{}), 0.65); err == nil {
		t.Fatal("non-n-gram measure accepted")
	}
	d, err := NewDynSparse(c, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(0); err == nil {
		t.Fatal("Insert of never-interned ID accepted")
	}
	if err := d.Insert(-1); err == nil {
		t.Fatal("Insert of negative ID accepted")
	}
	id := c.Intern("customer name")
	if err := d.Insert(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(id); err == nil {
		t.Fatal("double Insert accepted")
	}
	if err := d.Delete(id + 7); err == nil {
		t.Fatal("Delete of non-live ID accepted")
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err == nil {
		t.Fatal("double Delete accepted")
	}
	if d.Len() != 0 || d.Contains(id) {
		t.Fatal("index not empty after delete")
	}
	if d.Theta() != 0.65 {
		t.Fatal("Theta mismatch")
	}
}

package strsim

import (
	"fmt"
	"math"
	"sort"
)

// DynSparse is the mutable counterpart of BuildSparse: a θ-thresholded
// neighbor index over a *changing* subset of the cache's interned names,
// maintained by per-name Insert and Delete instead of whole-vocabulary
// rebuilds. The engine's churn layer keeps one per solve threshold and
// freezes it into an ordinary SparseScores for each solve.
//
// The maintained pair set is, by construction, exactly the pair set
// BuildSparse would produce over the same live names:
//
//   - In BlockPrefix mode the batch builder has exact recall (every pair
//     whose float32-rounded score reaches θ survives verification), and
//     an inserted name's candidates here are the union of the *full*
//     postings of its grams — a superset of any prefix-filtered probe,
//     since a positive Jaccard/Dice score requires at least one shared
//     gram. Exact verification then admits precisely the same pairs.
//
//   - In BlockMinHash mode candidates are same-(band, key) bucket
//     co-members, and both the per-name signature (a min-fold of salted
//     gram-string hashes) and the band keys are pure functions of the
//     name's gram strings and the seed — independent of insertion order
//     and of gram/name numbering — so the collision set, and after exact
//     verification the pair set, is identical to the batch build's.
//
// Scores are computed with the same integer set-overlap expressions and
// the same float32 rounding as BuildSparse, so frozen tables agree with
// batch-built ones bit for bit on every stored entry. DynSparse is not
// safe for concurrent use; the engine serializes churn against solves.
type DynSparse struct {
	cache *Cache
	theta float64
	cfg   BlockConfig
	dice  bool
	coef  func(la, lb, inter int) float64

	grams *gramVocab              // own gram interning (IDs are arbitrary but stable)
	sets  map[int32][]int32       // live name ID -> ascending gram IDs
	post  map[int32][]int32       // gram ID -> ascending live name IDs
	rows  map[int32][]sparseEntry // live name ID -> θ-neighbors (self excluded), ascending
	stats BlockStats

	// MinHash mode only.
	salts   []uint64
	keys    map[int32][]uint64   // live name ID -> per-band bucket key
	buckets []map[uint64][]int32 // band -> key -> ascending member IDs
}

// NewDynSparse returns an empty dynamic index over c at threshold theta.
// Constraints mirror BuildSparse: θ in (0,1] and an n-gram measure.
func NewDynSparse(c *Cache, theta float64, cfg BlockConfig) (*DynSparse, error) {
	if theta <= 0 || theta > 1 {
		return nil, fmt.Errorf("strsim: NewDynSparse theta %v outside (0,1]", theta)
	}
	var gramN int
	var dice bool
	coef := jaccardCoef
	switch meas := c.measure.(type) {
	case *NGramJaccard:
		gramN = meas.n
	case *NGramDice:
		gramN, dice, coef = meas.n, true, diceCoef
	default:
		return nil, fmt.Errorf("%w (have %s)", ErrUnsupportedMeasure, c.measure.Name())
	}
	cfg = cfg.withDefaults()
	d := &DynSparse{
		cache: c,
		theta: theta,
		cfg:   cfg,
		dice:  dice,
		coef:  coef,
		grams: newGramVocab(gramN),
		sets:  make(map[int32][]int32),
		post:  make(map[int32][]int32),
		rows:  make(map[int32][]sparseEntry),
	}
	switch cfg.Mode {
	case BlockPrefix:
	case BlockMinHash:
		k := cfg.Bands * cfg.Rows
		d.salts = make([]uint64, k)
		x := cfg.Seed
		for i := range d.salts {
			x = splitmix64(x)
			d.salts[i] = x
		}
		d.keys = make(map[int32][]uint64)
		d.buckets = make([]map[uint64][]int32, cfg.Bands)
		for b := range d.buckets {
			d.buckets[b] = make(map[uint64][]int32)
		}
	default:
		return nil, fmt.Errorf("strsim: unknown blocking mode %d", cfg.Mode)
	}
	return d, nil
}

// Theta reports the threshold the index maintains rows at.
func (d *DynSparse) Theta() float64 { return d.theta }

// Len reports the number of live (inserted, not deleted) names.
func (d *DynSparse) Len() int { return len(d.sets) }

// Contains reports whether the interned name ID is currently live.
func (d *DynSparse) Contains(id int) bool {
	_, ok := d.sets[int32(id)]
	return ok
}

// Stats reports the cumulative deterministic work counts of all inserts
// so far (candidates surfaced and pruned; probes = non-empty inserts).
func (d *DynSparse) Stats() BlockStats { return d.stats }

// Insert makes one interned name live, discovering and verifying its
// θ-neighbors among the names already live. Inserting an ID that is
// already live, or one the cache never interned, is an error.
func (d *DynSparse) Insert(id int) error {
	if id < 0 || id >= d.cache.Len() {
		return fmt.Errorf("strsim: DynSparse.Insert of unknown name ID %d", id)
	}
	a := int32(id)
	if _, ok := d.sets[a]; ok {
		return fmt.Errorf("strsim: DynSparse.Insert of already-live name ID %d", id)
	}
	set := d.grams.set(d.cache.NameOf(id))

	// Candidate discovery. Both modes collect into a dedup set, then the
	// candidates are sorted so verification order (and hence row memory
	// behavior) is deterministic; membership itself is order-free.
	seen := make(map[int32]struct{})
	var cands []int32
	addCand := func(b int32) {
		if _, ok := seen[b]; ok {
			return
		}
		seen[b] = struct{}{}
		cands = append(cands, b)
	}
	var bandKeys []uint64
	if len(set) > 0 {
		d.stats.Probes++
		switch d.cfg.Mode {
		case BlockPrefix:
			for _, g := range set {
				for _, b := range d.post[g] {
					addCand(b)
				}
			}
		case BlockMinHash:
			k := len(d.salts)
			sig := make([]uint64, k)
			for i := range sig {
				sig[i] = math.MaxUint64
			}
			for _, g := range set {
				h := fnv64a(d.grams.grams[g])
				for i, salt := range d.salts {
					if v := splitmix64(h ^ salt); v < sig[i] {
						sig[i] = v
					}
				}
			}
			bandKeys = make([]uint64, d.cfg.Bands)
			for b := 0; b < d.cfg.Bands; b++ {
				key := uint64(0xcbf29ce484222325)
				for r := 0; r < d.cfg.Rows; r++ {
					key = (key ^ sig[b*d.cfg.Rows+r]) * 1099511628211
				}
				bandKeys[b] = key
				for _, m := range d.buckets[b][key] {
					addCand(m)
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	// Exact verification, mirroring BuildSparse's verify closure: the
	// same length filter, the same overlap expressions and the same
	// float32-rounded inclusion test.
	d.stats.Candidates += int64(len(cands))
	for _, b := range cands {
		sb := d.sets[b]
		if !lenCompatible(d.theta, len(set), len(sb), d.dice) {
			d.stats.Pruned++
			continue
		}
		s := d.coef(len(set), len(sb), interSize(set, sb))
		if float64(float32(s)) >= d.theta {
			d.rows[a] = insertEntry(d.rows[a], sparseEntry{id: b, score: float32(s)})
			d.rows[b] = insertEntry(d.rows[b], sparseEntry{id: a, score: float32(s)})
		} else {
			d.stats.Pruned++
		}
	}

	// Publish the name into the index structures.
	for _, g := range set {
		d.post[g] = insertID(d.post[g], a)
	}
	if d.cfg.Mode == BlockMinHash && len(set) > 0 {
		for b, key := range bandKeys {
			d.buckets[b][key] = insertID(d.buckets[b][key], a)
		}
		d.keys[a] = bandKeys
	}
	d.sets[a] = set
	return nil
}

// Delete removes one live name: its postings, bucket memberships and
// row, plus its entry in every neighbor's row. Deleting a name that is
// not live is an error.
func (d *DynSparse) Delete(id int) error {
	a := int32(id)
	set, ok := d.sets[a]
	if !ok {
		return fmt.Errorf("strsim: DynSparse.Delete of non-live name ID %d", id)
	}
	for _, e := range d.rows[a] {
		d.rows[e.id] = removeEntry(d.rows[e.id], a)
		if len(d.rows[e.id]) == 0 {
			delete(d.rows, e.id)
		}
	}
	delete(d.rows, a)
	for _, g := range set {
		d.post[g] = removeID(d.post[g], a)
		if len(d.post[g]) == 0 {
			delete(d.post, g)
		}
	}
	if d.cfg.Mode == BlockMinHash {
		if keys, ok := d.keys[a]; ok {
			for b, key := range keys {
				d.buckets[b][key] = removeID(d.buckets[b][key], a)
				if len(d.buckets[b][key]) == 0 {
					delete(d.buckets[b], key)
				}
			}
			delete(d.keys, a)
		}
	}
	delete(d.sets, a)
	return nil
}

// Freeze materializes the current state as an ordinary SparseScores over
// the cache's full intern space (cache.Len() rows). Names that are not
// live — never inserted, or deleted — get a self-only row, exactly what
// BuildSparse gives an isolated name; callers that only query live names
// (the engine routes solves through live sources' name IDs) observe a
// table bit-identical to a fresh batch build over the live names.
func (d *DynSparse) Freeze() *SparseScores {
	n := d.cache.Len()
	s := &SparseScores{n: n, theta: d.theta, start: make([]int32, n+1), cache: d.cache}
	nnz := n
	//ube:nondeterministic-ok summing row lengths commutes; order cannot matter
	for _, row := range d.rows {
		nnz += len(row)
	}
	s.cols = make([]int32, 0, nnz)
	s.vals = make([]float32, 0, nnz)
	for i := 0; i < n; i++ {
		row := d.rows[int32(i)]
		// Splice the self entry (score exactly 1) into the ascending row.
		selfAt := len(row)
		for k, e := range row {
			if e.id > int32(i) {
				selfAt = k
				break
			}
		}
		for _, e := range row[:selfAt] {
			s.cols = append(s.cols, e.id)
			s.vals = append(s.vals, e.score)
		}
		s.cols = append(s.cols, int32(i))
		s.vals = append(s.vals, 1)
		for _, e := range row[selfAt:] {
			s.cols = append(s.cols, e.id)
			s.vals = append(s.vals, e.score)
		}
		s.start[i+1] = int32(len(s.cols))
	}
	return s
}

// insertEntry splices e into an ascending-ID row. Rows never hold
// duplicate IDs: a pair is verified once per insert of its newer side.
func insertEntry(row []sparseEntry, e sparseEntry) []sparseEntry {
	at := sort.Search(len(row), func(i int) bool { return row[i].id >= e.id })
	row = append(row, sparseEntry{})
	copy(row[at+1:], row[at:])
	row[at] = e
	return row
}

// removeEntry deletes the entry with the given ID from an ascending row.
func removeEntry(row []sparseEntry, id int32) []sparseEntry {
	at := sort.Search(len(row), func(i int) bool { return row[i].id >= id })
	if at < len(row) && row[at].id == id {
		row = append(row[:at], row[at+1:]...)
	}
	return row
}

// insertID splices v into an ascending ID list.
func insertID(lst []int32, v int32) []int32 {
	at := sort.Search(len(lst), func(i int) bool { return lst[i] >= v })
	lst = append(lst, 0)
	copy(lst[at+1:], lst[at:])
	lst[at] = v
	return lst
}

// removeID deletes v from an ascending ID list.
func removeID(lst []int32, v int32) []int32 {
	at := sort.Search(len(lst), func(i int) bool { return lst[i] >= v })
	if at < len(lst) && lst[at] == v {
		lst = append(lst[:at], lst[at+1:]...)
	}
	return lst
}

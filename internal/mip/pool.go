package mip

// The deterministic pool behind both incremental pipelines: lazy cut rows
// (cuts.go) and priced columns (price.go). Callbacks offer candidates, the
// pool deduplicates them by an exact canonical key, selects the best-scoring
// batch each round and ages out candidates that stopped paying. Only the
// validation on offer and the score differ between the two sides.

import (
	"encoding/binary"
	"math"
	"sort"
)

// canonical sorts a sparse vector by index, merges duplicate entries and
// drops exact-zero coefficients, mirroring the canonical form of
// lp.AppendRow and lp.AppendColumn so that the pool key and the appended
// vector agree. The inputs are not modified; an empty result means the
// vector canonicalizes to nothing.
func canonical(idx []int32, val []float64) ([]int32, []float64) {
	idx = append([]int32(nil), idx...)
	val = append([]float64(nil), val...)
	sort.Sort(&rowByCol{idx: idx, val: val})
	var outIdx []int32
	var outVal []float64
	for k := 0; k < len(idx); {
		j, v := idx[k], val[k]
		k++
		for k < len(idx) && idx[k] == j {
			v += val[k]
			k++
		}
		if v == 0 {
			continue
		}
		outIdx = append(outIdx, j)
		outVal = append(outVal, v)
	}
	return outIdx, outVal
}

type rowByCol struct {
	idx []int32
	val []float64
}

func (r *rowByCol) Len() int           { return len(r.idx) }
func (r *rowByCol) Less(i, j int) bool { return r.idx[i] < r.idx[j] }
func (r *rowByCol) Swap(i, j int) {
	r.idx[i], r.idx[j] = r.idx[j], r.idx[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// vecKey returns the exact key of an already-canonical sparse vector plus
// its scalars (bounds, objective): the little-endian concatenation of
// (index, coefficient-bits) pairs followed by the scalar bits. Two vectors
// share a key iff they are identical, so the pool's dedup can never be
// fooled by a hash collision.
func vecKey(idx []int32, val []float64, scalars ...float64) string {
	buf := make([]byte, 0, 12*len(idx)+8*len(scalars))
	var b [8]byte
	for k, j := range idx {
		binary.LittleEndian.PutUint32(b[:4], uint32(j))
		buf = append(buf, b[:4]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(val[k]))
		buf = append(buf, b[:8]...)
	}
	for _, s := range scalars {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
		buf = append(buf, b[:8]...)
	}
	return string(buf)
}

// entry is one pooled item plus its selection and eviction bookkeeping.
type entry[T any] struct {
	item T
	key  string
	// seq is the deterministic insertion order, the final tie-break of the
	// score sort.
	seq int
	// added marks items already appended to the LP; they stay pooled (so a
	// callback re-offering them is a cheap pool hit) but are never selected
	// or evicted again.
	added bool
	// paid is the round that last saw this item pay (score above the pays
	// threshold of best), its insertion round initially; age-based eviction
	// keys off it.
	paid int
	// score is scratch state: the item's score at the round's point.
	score float64
}

// pool is the committer-private store of offered items. All operations are
// deterministic: iteration follows insertion order, selection sorts by
// (score desc, insertion seq asc), and the dedup key is exact.
type pool[T any] struct {
	byKey   map[string]*entry[T]
	entries []*entry[T]
	round   int // current round, advanced by endRound
	offered int
	hits    int
	evicted int
}

func newPool[T any]() *pool[T] {
	return &pool[T]{byKey: make(map[string]*entry[T])}
}

// add pools item under key unless an item with the same key is present.
func (p *pool[T]) add(item T, key string) {
	if _, dup := p.byKey[key]; dup {
		p.hits++
		return
	}
	e := &entry[T]{item: item, key: key, seq: len(p.entries), paid: p.round}
	p.byKey[key] = e
	p.entries = append(p.entries, e)
}

// best returns the (at most) batch unapplied items scoring above floor,
// best first. Every item scoring above pays has its age refreshed —
// including those beyond the batch, which stay pooled for the next round
// instead of aging out. A floor below pays admits items that do not pay;
// their age is not refreshed, so unappended ones still age out normally.
func (p *pool[T]) best(score func(T) float64, pays, floor float64, batch int) []*entry[T] {
	var cand []*entry[T]
	for _, e := range p.entries {
		if e.added {
			continue
		}
		e.score = score(e.item)
		if e.score > pays {
			e.paid = p.round
		}
		if e.score > floor {
			cand = append(cand, e)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		//lint:allow floateq -- selection needs a strict deterministic total order, not a tolerance
		if cand[i].score != cand[j].score {
			return cand[i].score > cand[j].score
		}
		return cand[i].seq < cand[j].seq
	})
	if len(cand) > batch {
		cand = cand[:batch]
	}
	return cand
}

// endRound advances the round counter and evicts unapplied items that have
// not paid for more than poolMaxAge rounds. Applied items are permanent:
// they are LP rows or columns now, and keeping them pooled keeps the dedup
// exact.
func (p *pool[T]) endRound() {
	p.round++
	kept := p.entries[:0]
	for _, e := range p.entries {
		if !e.added && p.round-e.paid > poolMaxAge {
			delete(p.byKey, e.key)
			p.evicted++
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(p.entries); i++ {
		p.entries[i] = nil
	}
	p.entries = kept
}

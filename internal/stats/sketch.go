package stats

import (
	"fmt"
	"math"
	"unsafe"
)

// DefaultSketchAccuracy is the relative-error bound used by summary-tier
// metric collection: a quantile returned by the sketch is within ±1% of
// the true sample value at that rank.
const DefaultSketchAccuracy = 0.01

// maxSketchBuckets bounds each store (positive and negative) of a
// QuantileSketch. With the default accuracy a store spans ~115 buckets
// per decade of magnitude, so 2048 buckets cover ~17 decades before any
// collapse happens; real metric streams never get close.
const maxSketchBuckets = 2048

// minSketchMagnitude is the smallest magnitude indexed exactly. Values
// closer to zero are counted in the exact zero bucket, introducing at
// most 1e-9 absolute error — far below the resolution of any reported
// metric.
const minSketchMagnitude = 1e-9

// QuantileSketch is a streaming quantile estimator with a guaranteed
// relative-error bound, in the style of DDSketch ("DDSketch: a fast and
// fully-mergeable quantile sketch", VLDB 2019). Values are mapped to
// logarithmically sized buckets with ratio γ = (1+α)/(1−α); the bucket
// representative is then within relative error α of every value in the
// bucket. Zero is counted exactly and negative values go to a mirrored
// store, so the guarantee holds for any real-valued stream.
//
// Memory behavior: each sign keeps a window of counts, one 8-byte slot
// per bucket index between the lowest and highest magnitude seen (~115
// per decade), whatever the number of samples. The window only grows, and
// never past the indexes of minSketchMagnitude and MaxFloat64, so a store
// is at most ~36.5 k slots (292 KB) at the default accuracy; see
// MemoryBytes. At most maxSketchBuckets of the slots are live per sign
// (lowest-magnitude buckets collapse first, so upper quantiles keep their
// guarantee even in the capped regime). Add allocates only when a value
// lands outside the window; steady-state sampling is allocation-free, and
// Quantile neither sorts nor allocates.
//
// The guarantee: for a sample of n values, Quantile(q) returns a value v
// such that |v − x| ≤ α·|x| where x is the exact order statistic of rank
// ⌊q·(n−1)⌋, except for values inside the zero bucket (|x| below
// minSketchMagnitude), which are reported as exactly 0.
type QuantileSketch struct {
	gamma      float64
	invLnGamma float64
	pos, neg   sketchStore
	zeros      int64
	n          int64
}

// sketchWindow is the first window a store allocates, centred on its
// first key: about half a decade either side at the default accuracy, so
// a metric stream spanning 80–850 keys grows it at most three times.
const sketchWindow = 128

// sketchStore is one sign's buckets in DDSketch's dense layout: counts[i]
// holds key offset+i, so add is a bounds check and an increment. A run
// sketch sees every job's samples interleaved, over 80–850 neighbouring
// keys (growth efficiency swings over decades), so consecutive adds rarely
// share a bucket; the window makes each one O(1) whatever the order.
//
// A key outside the window grows it toward the key, at least doubling so
// a stream walking outward pays O(log span) copies, and never past
// [minKey, maxKey] — the keys of minSketchMagnitude and MaxFloat64 — so a
// store holds at most maxKey−minKey+1 slots (36 525 at α = 0.01, 292 KB)
// whatever the stream. The window never shrinks.
//
// live counts the non-zero slots. When a new one takes it past
// maxSketchBuckets, the lowest live bucket merges into the next lowest and
// clampKey marks the new lowest: anything below it merges into it,
// trading accuracy at the collapsed (low-magnitude) end for a bounded
// bucket count.
type sketchStore struct {
	counts         []int64
	offset         int32
	live           int
	clampKey       int32
	clamped        bool
	minKey, maxKey int32
}

func (s *sketchStore) add(key int32) {
	if s.clamped && key < s.clampKey {
		key = s.clampKey
	}
	i := int(key) - int(s.offset)
	if uint(i) >= uint(len(s.counts)) {
		i = s.grow(key)
	}
	s.counts[i]++
	if s.counts[i] == 1 {
		s.live++
		if s.live > maxSketchBuckets {
			s.collapse()
		}
	}
}

// grow widens the window to hold key and returns key's index in it.
func (s *sketchStore) grow(key int32) int {
	n := int32(len(s.counts))
	lo, hi := key-sketchWindow/2, key+sketchWindow/2-1
	if n > 0 && key < s.offset {
		lo, hi = min(key, s.offset-n), s.offset+n-1
	} else if n > 0 {
		lo, hi = s.offset, max(key, s.offset+2*n-1)
	}
	lo, hi = max(lo, s.minKey), min(hi, s.maxKey)
	counts := make([]int64, hi-lo+1)
	if n > 0 {
		copy(counts[s.offset-lo:], s.counts)
	}
	s.counts, s.offset = counts, lo
	return int(key - lo)
}

// collapse merges the lowest live bucket into the next lowest, keeping the
// store at the cap.
func (s *sketchStore) collapse() {
	lo := 0
	if s.clamped {
		lo = int(s.clampKey - s.offset)
	}
	for s.counts[lo] == 0 {
		lo++
	}
	next := lo + 1
	for s.counts[next] == 0 {
		next++
	}
	s.counts[next] += s.counts[lo]
	s.counts[lo] = 0
	s.live--
	s.clampKey = s.offset + int32(next)
	s.clamped = true
}

// NewQuantileSketch returns an empty sketch with relative accuracy
// alpha ∈ (0, 1). Use DefaultSketchAccuracy unless a caller has a
// documented reason to trade memory for precision.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	s := new(QuantileSketch)
	s.Init(alpha)
	return s
}

// Init resets s to an empty sketch with relative accuracy alpha — the
// in-place form of NewQuantileSketch, for sketches embedded by value in
// a larger record.
func (s *QuantileSketch) Init(alpha float64) {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("stats: sketch accuracy %g outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	*s = QuantileSketch{
		gamma:      gamma,
		invLnGamma: 1 / math.Log(gamma),
	}
	minKey, maxKey := s.key(minSketchMagnitude), s.key(math.MaxFloat64)
	s.pos = sketchStore{minKey: minKey, maxKey: maxKey}
	s.neg = s.pos
}

// key maps a magnitude (≥ minSketchMagnitude) to its bucket index
// k = ⌈log_γ(mag)⌉, so bucket k covers (γ^(k−1), γ^k].
func (s *QuantileSketch) key(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) * s.invLnGamma))
}

// rep returns the representative value of bucket k, the midpoint
// 2γ^k/(γ+1), which is within relative error α of the whole bucket. In
// the top buckets 2γ^k overflows though the midpoint need not, so there
// it is γ^(k−1)·2γ/(γ+1), clamped to MaxFloat64; a bucket whose first
// form is finite keeps its bits.
func (s *QuantileSketch) rep(k int32) float64 {
	if r := 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1); !math.IsInf(r, 0) {
		return r
	}
	return min(math.Pow(s.gamma, float64(k-1))*(2*s.gamma/(s.gamma+1)), math.MaxFloat64)
}

// Add folds one value into the sketch. NaN and ±Inf panic — the metric
// pipeline never produces them, so one is a collection bug, and no bucket
// index can hold an infinity (its key overflows int32 and would file +Inf
// as the smallest value). Allocation happens only when a value lands
// outside its store's window; values inside it are free.
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("stats: %g added to sketch", v))
	}
	s.n++
	switch {
	case v >= minSketchMagnitude:
		s.pos.add(s.key(v))
	case v <= -minSketchMagnitude:
		s.neg.add(s.key(-v))
	default:
		s.zeros++
	}
}

// Count returns how many values were added.
func (s *QuantileSketch) Count() int64 { return s.n }

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1) at the order
// statistic of rank ⌊q·(n−1)⌋, within the sketch's relative-error
// guarantee. It panics on an empty sketch, mirroring stats.Quantile.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		panic("stats: quantile of empty sketch")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g outside [0,1]", q))
	}
	rank := int64(q * float64(s.n-1))
	// Walk values in ascending order: negatives from largest magnitude
	// down, then the zero bucket, then positives from smallest up. An
	// empty slot adds nothing to cum, so it can never satisfy rank < cum.
	cum := int64(0)
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		cum += s.neg.counts[i]
		if rank < cum {
			return -s.rep(s.neg.offset + int32(i))
		}
	}
	cum += s.zeros
	if rank < cum {
		return 0
	}
	for i, c := range s.pos.counts {
		cum += c
		if rank < cum {
			return s.rep(s.pos.offset + int32(i))
		}
	}
	// Unreachable unless counts are inconsistent.
	panic("stats: sketch rank walk overran total count")
}

// MemoryBytes returns the sketch's retained memory: the struct itself
// plus 8 bytes per slot of the two count windows, by capacity since the
// backing arrays are held either way. It is exact for the heap the sketch
// owns; allocator size-class rounding is not counted.
func (s *QuantileSketch) MemoryBytes() int {
	return int(unsafe.Sizeof(*s)) + (cap(s.pos.counts)+cap(s.neg.counts))*int(unsafe.Sizeof(int64(0)))
}

package stats

import (
	"fmt"
	"math"
	"slices"
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
// Memory behavior: O(buckets), where the bucket count grows with the
// number of distinct magnitude scales in the stream — not with the
// number of samples — and is hard-capped at maxSketchBuckets per sign
// (lowest-magnitude buckets collapse first, so upper quantiles keep
// their guarantee even in the capped regime): 16 bytes per live bucket,
// see MemoryBytes. Add allocates only when a value lands in a previously
// unseen bucket and the bucket slice is full; steady-state sampling is
// allocation-free, and Quantile neither sorts nor allocates.
//
// The guarantee: for a sample of n values, Quantile(q) returns a value v
// such that |v − x| ≤ α·|x| where x is the exact order statistic of rank
// ⌊q·(n−1)⌋, except for values inside the zero bucket (|x| below
// minSketchMagnitude), which are reported as exactly 0.
type QuantileSketch struct {
	alpha      float64
	gamma      float64
	invLnGamma float64
	pos, neg   sketchStore
	zeros      int64
	n          int64
}

// sketchBucket is one live bucket: its index k and how many values fell
// into (γ^(k−1), γ^k].
type sketchBucket struct {
	key   int32
	count int64
}

// sketchStore is one sign's buckets: only the live ones, sorted by key —
// the contiguous ordered store the DDSketch paper recommends over a hash
// map. A metric stream lands in a handful of neighbouring buckets and
// mostly in the one it hit last, so add checks the last-hit index first,
// binary-searches on a miss and shifts the tail up on first contact with
// a key; Quantile walks the slice in order. After a collapse, clampKey
// marks the lowest live key: anything below it merges into it, trading
// accuracy at the collapsed (low-magnitude) end for bounded memory.
//
// A dense window indexed by key − minKey would make add O(1), but metric
// streams hold their live buckets spread over a span of 80–850 keys
// (growth efficiency swings over decades). With a store per job and kind
// the window doubled a megacluster run's peak RSS; the metrics collector
// now keeps five sketches per run, so that cost no longer scales with
// jobs, and whether a window pays is a question for a measured change.
type sketchStore struct {
	buckets  []sketchBucket
	last     int
	clampKey int32
	clamped  bool
}

func (s *sketchStore) add(key int32) {
	if s.clamped && key < s.clampKey {
		key = s.clampKey
	}
	if s.last < len(s.buckets) && s.buckets[s.last].key == key {
		s.buckets[s.last].count++
		return
	}
	// Hand-rolled: through slices.BinarySearchFunc's comparator this,
	// the miss path of every sample, measured 22 → 36 ns per Add
	// (BenchmarkSketchAdd).
	lo, hi := 0, len(s.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.buckets[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.last = lo
	if lo < len(s.buckets) && s.buckets[lo].key == key {
		s.buckets[lo].count++
		return
	}
	s.buckets = slices.Insert(s.buckets, lo, sketchBucket{key: key, count: 1})
	if len(s.buckets) > maxSketchBuckets {
		s.collapse()
	}
}

// collapse merges the lowest-keyed (smallest-magnitude) bucket into the
// next lowest, keeping the store at the cap.
func (s *sketchStore) collapse() {
	s.buckets[1].count += s.buckets[0].count
	s.buckets = slices.Delete(s.buckets, 0, 1)
	s.clampKey = s.buckets[0].key
	s.clamped = true
	s.last = max(s.last-1, 0)
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
		alpha:      alpha,
		gamma:      gamma,
		invLnGamma: 1 / math.Log(gamma),
	}
}

// key maps a magnitude (≥ minSketchMagnitude) to its bucket index
// k = ⌈log_γ(mag)⌉, so bucket k covers (γ^(k−1), γ^k].
func (s *QuantileSketch) key(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) * s.invLnGamma))
}

// rep returns the representative value of bucket k, the midpoint
// 2γ^k/(γ+1), which is within relative error α of the whole bucket.
func (s *QuantileSketch) rep(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add folds one value into the sketch. NaN and ±Inf panic — the metric
// pipeline never produces them, so one is a collection bug, and no bucket
// index can hold an infinity (its key overflows int32 and would file +Inf
// as the smallest value). Allocation happens only on first contact with a
// bucket; repeated values are free.
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

// RelativeAccuracy returns the α the sketch was built with.
func (s *QuantileSketch) RelativeAccuracy() float64 { return s.alpha }

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
	// down, then the zero bucket, then positives from smallest up.
	cum := int64(0)
	for i := len(s.neg.buckets) - 1; i >= 0; i-- {
		cum += s.neg.buckets[i].count
		if rank < cum {
			return -s.rep(s.neg.buckets[i].key)
		}
	}
	cum += s.zeros
	if rank < cum {
		return 0
	}
	for _, b := range s.pos.buckets {
		cum += b.count
		if rank < cum {
			return s.rep(b.key)
		}
	}
	// Unreachable unless counts are inconsistent.
	panic("stats: sketch rank walk overran total count")
}

// MemoryBytes returns the sketch's retained memory: the struct itself
// plus 16 bytes (key + count) per slot of the two bucket slices, by
// capacity since the backing arrays are held either way. It is exact for
// the heap the sketch owns; allocator size-class rounding is not counted.
func (s *QuantileSketch) MemoryBytes() int {
	return int(unsafe.Sizeof(*s)) + (cap(s.pos.buckets)+cap(s.neg.buckets))*int(unsafe.Sizeof(sketchBucket{}))
}

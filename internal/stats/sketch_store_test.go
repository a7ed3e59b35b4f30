package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// mapStore is the hash-map bucket store the sketch used before its
// sorted slice and dense window, kept as the reference the fuzz target
// holds sketchStore to: same counts per key, same collapse order,
// therefore same quantiles.
type mapStore struct {
	buckets  map[int32]int64
	clampKey int32
	clamped  bool
}

func (s *mapStore) add(key int32) {
	if s.clamped && key < s.clampKey {
		key = s.clampKey
	}
	s.buckets[key]++
	if len(s.buckets) <= maxSketchBuckets {
		return
	}
	lowest, second := int32(math.MaxInt32), int32(math.MaxInt32)
	for k := range s.buckets {
		if k < lowest {
			lowest, second = k, lowest
		} else if k < second {
			second = k
		}
	}
	s.buckets[second] += s.buckets[lowest]
	delete(s.buckets, lowest)
	s.clampKey = second
	s.clamped = true
}

func (s *mapStore) sortedKeys() []int32 {
	keys := make([]int32, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// refSketch is a QuantileSketch over mapStores. It borrows key and rep
// from a real sketch so only the store differs.
type refSketch struct {
	sk       *QuantileSketch
	pos, neg mapStore
	zeros, n int64
}

func newRefSketch(alpha float64) *refSketch {
	return &refSketch{
		sk:  NewQuantileSketch(alpha),
		pos: mapStore{buckets: make(map[int32]int64)},
		neg: mapStore{buckets: make(map[int32]int64)},
	}
}

func (r *refSketch) Add(v float64) {
	r.n++
	switch {
	case v >= minSketchMagnitude:
		r.pos.add(r.sk.key(v))
	case v <= -minSketchMagnitude:
		r.neg.add(r.sk.key(-v))
	default:
		r.zeros++
	}
}

func (r *refSketch) Quantile(q float64) float64 {
	rank := int64(q * float64(r.n-1))
	cum := int64(0)
	negKeys := r.neg.sortedKeys()
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += r.neg.buckets[negKeys[i]]
		if rank < cum {
			return -r.sk.rep(negKeys[i])
		}
	}
	cum += r.zeros
	if rank < cum {
		return 0
	}
	for _, k := range r.pos.sortedKeys() {
		cum += r.pos.buckets[k]
		if rank < cum {
			return r.sk.rep(k)
		}
	}
	panic("reference sketch rank walk overran total count")
}

// FuzzSketchStore drives the dense store and the map reference with the
// same stream and demands identical Count and quantiles, and checks the
// store's own invariants. The stream is drawn from a seeded generator
// shaped by the fuzzed arguments: n values whose magnitudes spread over
// `spread` bucket indexes (beyond maxSketchBuckets the stores collapse),
// negPct% negative, zeroPct% zero, extremePct% at an end of the indexable
// range (minSketchMagnitude or 1e300, so the window grows both ways), and
// a `sticky` chance of repeating the previous value.
func FuzzSketchStore(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(6), uint8(0), uint8(0), uint8(200), uint8(0))
	f.Add(int64(2), uint16(5000), uint16(850), uint8(50), uint8(10), uint8(0), uint8(0))
	f.Add(int64(3), uint16(20000), uint16(3*maxSketchBuckets), uint8(0), uint8(0), uint8(30), uint8(0))
	f.Add(int64(4), uint16(20000), uint16(3*maxSketchBuckets), uint8(100), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), uint16(30000), uint16(65535), uint8(40), uint8(5), uint8(100), uint8(0))
	f.Add(int64(6), uint16(1), uint16(0), uint8(0), uint8(100), uint8(0), uint8(0))
	// The run-sketch pattern: every job's samples interleaved, in random
	// order over ~850 neighbouring keys.
	f.Add(int64(7), uint16(40000), uint16(850), uint8(0), uint8(0), uint8(0), uint8(0))
	// Both ends of the indexable range, either sign, among mid values.
	f.Add(int64(8), uint16(5000), uint16(200), uint8(50), uint8(0), uint8(0), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, n, spread uint16, negPct, zeroPct, sticky, extremePct uint8) {
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		sk := NewQuantileSketch(DefaultSketchAccuracy)
		ref := newRefSketch(DefaultSketchAccuracy)
		check := func(at int) {
			t.Helper()
			if sk.Count() != ref.n {
				t.Fatalf("after %d adds: count %d, reference %d", at, sk.Count(), ref.n)
			}
			for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
				if got, want := sk.Quantile(q), ref.Quantile(q); got != want {
					t.Fatalf("after %d adds: q%g = %g, reference %g", at, q, got, want)
				}
			}
			for _, st := range []*sketchStore{&sk.pos, &sk.neg} {
				live := 0
				for i, c := range st.counts {
					if c == 0 {
						continue
					}
					live++
					if key := st.offset + int32(i); st.clamped && key < st.clampKey {
						t.Fatalf("after %d adds: count %d at key %d, below clamp key %d", at, c, key, st.clampKey)
					}
				}
				if live != st.live || live > maxSketchBuckets {
					t.Fatalf("after %d adds: %d non-zero slots, live count %d, cap %d", at, live, st.live, maxSketchBuckets)
				}
			}
		}
		v := 0.0
		for i := 0; i < int(n); i++ {
			if i == 0 || rng.Intn(256) >= int(sticky) {
				switch p := rng.Intn(100); {
				case p < int(zeroPct):
					v = 0
				default:
					if p < int(zeroPct)+int(extremePct) {
						v = minSketchMagnitude
						if rng.Intn(2) == 0 {
							v = 1e300
						}
					} else {
						// γ^k for k spread around 0: one bucket index per k.
						k := rng.Intn(int(spread)+1) - int(spread)/2
						v = math.Pow(sk.gamma, float64(k))
					}
					if rng.Intn(100) < int(negPct) {
						v = -v
					}
				}
			}
			sk.Add(v)
			ref.Add(v)
			if i == int(n)/2 {
				check(i + 1)
			}
		}
		check(int(n))
	})
}

// TestSketchStoreSpanBound pins the dense store's worst case. A stream
// reaching both ends of the indexable range, of either sign, grows each
// window to at most the key domain — ⌈log_γ MaxFloat64⌉ − ⌈log_γ 1e-9⌉ + 1
// = 36 525 slots at α = 0.01 — however the doubling falls, and
// MemoryBytes is exactly the struct plus 8 B per slot of both windows.
func TestSketchStoreSpanBound(t *testing.T) {
	const maxSlots = 37_000 // per store, at DefaultSketchAccuracy
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	base := int(unsafe.Sizeof(*sk))
	// Walk up from the bottom of the range a few decades at a time, so
	// each grow doubles past the last key, then jump to the top.
	vals := []float64{minSketchMagnitude}
	for v := 1e-6; v < 1e300; v *= 1e25 {
		vals = append(vals, v)
	}
	vals = append(vals, math.MaxFloat64/2)
	for _, v := range vals {
		sk.Add(v)
		sk.Add(-v)
		mem := sk.MemoryBytes()
		if want := base + 8*(cap(sk.pos.counts)+cap(sk.neg.counts)); mem != want {
			t.Fatalf("after %g: MemoryBytes %d, want struct %d + 8 B × (%d + %d) slots = %d",
				v, mem, base, cap(sk.pos.counts), cap(sk.neg.counts), want)
		}
		if bound := base + 2*8*maxSlots; mem > bound {
			t.Fatalf("after %g: MemoryBytes %d over the %d-slot bound %d", v, mem, maxSlots, bound)
		}
	}
	for _, st := range []*sketchStore{&sk.pos, &sk.neg} {
		if st.offset != st.minKey || int(st.offset)+len(st.counts)-1 != int(st.maxKey) {
			t.Fatalf("window [%d, %d], want the key domain [%d, %d]",
				st.offset, int(st.offset)+len(st.counts)-1, st.minKey, st.maxKey)
		}
	}
}

package metrics

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/stats"
)

// SketchAccuracy is the relative-error bound of every quantile a
// collector reports: a run-level sketch quantile is within ±1% of the
// exact sample value at that rank (see stats.QuantileSketch for the
// guarantee).
const SketchAccuracy = stats.DefaultSketchAccuracy

// SeriesSummary is the constant-memory replacement for a dense Series:
// exact Welford moments plus the first/last observed points for span
// bookkeeping. Collectors answer one per job/kind in both tiers, which
// gives reports a uniform accessor. The summary tier observes each sample
// as it arrives; the dense tier folds the raw series in on first read,
// feeding the same points in the same order. Quantiles are not kept per
// job: the Collector holds one quantile sketch per kind for the whole
// run.
//
// Memory behavior: O(1) — a fixed-size struct whatever the sample count.
// Observe never allocates.
type SeriesSummary struct {
	moments     stats.Welford
	first, last Point
}

// NewSeriesSummary returns an empty summary.
func NewSeriesSummary() *SeriesSummary { return new(SeriesSummary) }

// Observe folds one timestamped sample in. Timestamps must be
// non-decreasing, matching Series.Append's contract.
func (s *SeriesSummary) Observe(t, v float64) {
	if s.moments.Count() == 0 {
		s.first = Point{T: t, V: v}
	} else if t < s.last.T {
		panic(fmt.Sprintf("metrics: summary time went backwards: %g < %g", t, s.last.T))
	}
	s.last = Point{T: t, V: v}
	s.moments.Add(v)
}

// Count returns how many samples were observed.
func (s *SeriesSummary) Count() int64 { return s.moments.Count() }

// Moments returns a copy of the online moment accumulator.
func (s *SeriesSummary) Moments() stats.Welford { return s.moments }

// First returns the earliest observed point; ok is false when empty.
func (s *SeriesSummary) First() (Point, bool) { return s.first, s.moments.Count() > 0 }

// Last returns the latest observed point; ok is false when empty.
func (s *SeriesSummary) Last() (Point, bool) { return s.last, s.moments.Count() > 0 }

// MemoryBytes returns retained memory: the struct itself, which points
// at nothing.
func (s *SeriesSummary) MemoryBytes() int { return int(unsafe.Sizeof(*s)) }

// DefaultCompactPoints is the retention bound of a CompactSeries. All
// built-in scenarios produce far fewer growth samples than this per job
// (itval 30s × job lifetimes ≲ a few thousand seconds), so compaction
// never triggers for them and summary-tier GE@fraction values are exact.
const DefaultCompactPoints = 256

// CompactSeries is a bounded step-series for summary-tier growth
// trajectories: it answers "what was the value at time t" like
// Series.At, but caps retention at a fixed point budget. When the budget
// fills, every other retained point is dropped in place and the minimum
// spacing between future retained points doubles, so the series keeps
// covering the whole run at geometrically coarser resolution. The most
// recent point is always tracked exactly.
//
// Memory behavior: O(DefaultCompactPoints) regardless of sample count.
// Append is allocation-free after the first call (compaction reuses the
// backing array).
type CompactSeries struct {
	max    int
	pts    []Point
	stride float64 // minimum T spacing between retained points; 0 = keep all
	last   Point
	n      int64
}

// NewCompactSeries returns an empty series bounded at max points
// (DefaultCompactPoints when max is 0). It panics on max < 8 — smaller
// budgets make At useless.
func NewCompactSeries(max int) *CompactSeries {
	if max == 0 {
		max = DefaultCompactPoints
	}
	if max < 8 {
		panic(fmt.Sprintf("metrics: compact series budget %d too small", max))
	}
	return &CompactSeries{max: max}
}

// Append records a sample. Timestamps must be non-decreasing, matching
// Series.Append's contract. Samples closer than the current stride to
// the last retained point update only the exact last-point tracker.
func (s *CompactSeries) Append(t, v float64) {
	if s.n > 0 && t < s.last.T {
		panic(fmt.Sprintf("metrics: compact series time went backwards: %g < %g", t, s.last.T))
	}
	s.n++
	s.last = Point{T: t, V: v}
	if s.pts == nil {
		// Start small and let append grow toward the budget: most jobs
		// (short-lived, large fleets) never need the full allocation, and
		// per-job footprint is what the summary tier exists to bound.
		s.pts = make([]Point, 0, 16)
	}
	if len(s.pts) > 0 && s.stride > 0 && t < s.pts[len(s.pts)-1].T+s.stride {
		return
	}
	if len(s.pts) == s.max {
		// In-place halving: keep every other point, double the stride.
		half := (len(s.pts) + 1) / 2
		for i := 0; i < half; i++ {
			s.pts[i] = s.pts[2*i]
		}
		s.pts = s.pts[:half]
		if s.stride == 0 {
			span := s.pts[half-1].T - s.pts[0].T
			s.stride = span / float64(half-1)
		} else {
			s.stride *= 2
		}
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// At returns the retained value at time t using the same right-continuous
// step semantics as Series.At. ok is false before the first retained
// point or when the series is empty — the same "no sample yet" signal
// the dense tier derives from Points()[0].T.
func (s *CompactSeries) At(t float64) (float64, bool) {
	if s.n == 0 || t < s.pts[0].T {
		return 0, false
	}
	if t >= s.last.T {
		return s.last.V, true
	}
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.pts[i-1].V, true
}

// Len returns the number of retained points (≤ the budget).
func (s *CompactSeries) Len() int { return len(s.pts) }

// Total returns how many samples were appended, retained or not.
func (s *CompactSeries) Total() int64 { return s.n }

// Last returns the most recent sample (always exact); ok is false when
// the series is empty.
func (s *CompactSeries) Last() (Point, bool) { return s.last, s.n > 0 }

// MemoryBytes estimates retained memory: the point budget's backing
// array plus fixed fields.
func (s *CompactSeries) MemoryBytes() int {
	const fixed = 64
	return fixed + cap(s.pts)*16
}

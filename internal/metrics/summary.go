package metrics

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// SketchAccuracy is the relative-error bound of a quantile sketch built
// for metric values (see stats.QuantileSketch for the guarantee). No
// collector keeps a sketch; ./bench times one at this accuracy.
const SketchAccuracy = stats.DefaultSketchAccuracy

// SeriesSummary is the constant-memory digest of a series: exact Welford
// moments. CPUSummary folds a dense-tier CPU series into one on each call.
//
// Memory behavior: O(1) — a fixed-size struct whatever the sample count.
// Observe never allocates.
type SeriesSummary struct {
	moments stats.Welford
	lastT   float64
}

// NewSeriesSummary returns an empty summary.
func NewSeriesSummary() *SeriesSummary { return new(SeriesSummary) }

// Observe folds one timestamped sample in. Timestamps must be
// non-decreasing, matching Series.Append's contract.
func (s *SeriesSummary) Observe(t, v float64) {
	if s.moments.Count() > 0 && t < s.lastT {
		panic(fmt.Sprintf("metrics: summary time went backwards: %g < %g", t, s.lastT))
	}
	s.lastT = t
	s.moments.Add(v)
}

// Count returns how many samples were observed.
func (s *SeriesSummary) Count() int64 { return s.moments.Count() }

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

// MemoryBytes estimates retained memory: the point budget's backing
// array plus fixed fields.
func (s *CompactSeries) MemoryBytes() int {
	const fixed = 64
	return fixed + cap(s.pts)*16
}

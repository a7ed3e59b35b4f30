package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/sim"
)

// The archive's tier field is Tier.String.
func TestTierString(t *testing.T) {
	if TierSummary.String() != "summary" || TierDense.String() != "dense" {
		t.Fatalf("tier strings: %v %v", TierSummary, TierDense)
	}
}

func TestSeriesSummaryObserve(t *testing.T) {
	s := NewSeriesSummary()
	if s.Count() != 0 {
		t.Fatal("empty summary has samples")
	}
	for i := 0; i < 100; i++ {
		s.Observe(float64(i), float64(i%10))
	}
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	m := s.moments
	if math.Abs(m.Mean()-4.5) > 1e-12 || m.Min() != 0 || m.Max() != 9 {
		t.Fatalf("moments mean=%g min=%g max=%g", m.Mean(), m.Min(), m.Max())
	}
	if s.lastT != 99 {
		t.Fatalf("last time = %g", s.lastT)
	}
}

func TestSeriesSummaryRejectsBackwardTime(t *testing.T) {
	s := NewSeriesSummary()
	s.Observe(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backward timestamp did not panic")
		}
	}()
	s.Observe(5, 2)
}

// TestCompactSeriesMatchesDenseBelowBudget pins the property ReportScenario
// relies on: until the point budget fills, CompactSeries.At is identical
// to Series.At for any query at or after the first point.
func TestCompactSeriesMatchesDenseBelowBudget(t *testing.T) {
	var dense Series
	cs := NewCompactSeries(0)
	rng := rand.New(rand.NewSource(3))
	tNow := 0.0
	for i := 0; i < DefaultCompactPoints-1; i++ {
		tNow += rng.Float64() * 40
		v := rng.Float64()
		dense.Append(tNow, v)
		cs.Append(tNow, v)
	}
	if len(cs.pts) != int(cs.n) {
		t.Fatalf("compaction triggered below budget: %d retained of %d", len(cs.pts), cs.n)
	}
	for q := 0.0; q < tNow+100; q += 7.3 {
		want := dense.At(q)
		got, ok := cs.At(q)
		if !ok {
			if q >= dense.Points()[0].T {
				t.Fatalf("At(%g) not ok inside span", q)
			}
			continue
		}
		if got != want {
			t.Fatalf("At(%g) = %g, dense %g", q, got, want)
		}
	}
}

func TestCompactSeriesBoundedAndCoarse(t *testing.T) {
	cs := NewCompactSeries(16)
	for i := 0; i < 10000; i++ {
		cs.Append(float64(i), float64(i))
	}
	if len(cs.pts) > 16 {
		t.Fatalf("budget violated: %d points", len(cs.pts))
	}
	if cs.n != 10000 {
		t.Fatalf("total = %d", cs.n)
	}
	if last := cs.last; last.T != 9999 || last.V != 9999 {
		t.Fatalf("last point drifted: %+v", last)
	}
	// At answers are stale by at most the final stride.
	v, ok := cs.At(5000)
	if !ok {
		t.Fatal("mid-span query not ok")
	}
	if v > 5000 || 5000-v > 2*float64(10000)/8 {
		t.Fatalf("At(5000) = %g too stale", v)
	}
	// The last point stays exact even when queried directly.
	if v, _ := cs.At(9999); v != 9999 {
		t.Fatalf("At(last) = %g", v)
	}
}

func TestCompactSeriesEdges(t *testing.T) {
	cs := NewCompactSeries(0)
	if _, ok := cs.At(5); ok {
		t.Fatal("empty series answered a query")
	}
	cs.Append(10, 1)
	if _, ok := cs.At(5); ok {
		t.Fatal("query before first point answered")
	}
	if v, ok := cs.At(10); !ok || v != 1 {
		t.Fatalf("At(10) = %g, %v", v, ok)
	}
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("backward time", func() { cs.Append(5, 2) })
	assertPanics("tiny budget", func() { NewCompactSeries(4) })
}

// TestSummaryTierSteadyStateAllocs is the satellite alloc guard: once a
// compact series' backing array exists, a summary-tier sampling step
// allocates nothing.
func TestSummaryTierSteadyStateAllocs(t *testing.T) {
	s := NewSeriesSummary()
	cs := NewCompactSeries(0)
	// Warm: grow the compact backing array to its full budget (it grows
	// lazily, so steady state begins once the first compaction cycle has
	// run).
	tNow := 0.0
	vals := []float64{0, 0.25, 0.5, 1.0}
	for i := 0; i < DefaultCompactPoints+8; i++ {
		tNow++
		s.Observe(tNow, vals[i%len(vals)])
		cs.Append(tNow, vals[i%len(vals)])
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range vals {
			tNow++
			s.Observe(tNow, v)
			cs.Append(tNow, v)
		}
	})
	if allocs != 0 {
		t.Fatalf("summary-tier observe allocates %.1f per run, want 0", allocs)
	}
}

// TestCollectorObserveAllocs drives what the summary tier still observes,
// an Algorithm 1 run's growth efficiency through RecordRun into the job's
// compact trajectory, and pins it allocation-free once the trajectory's
// backing array has reached its budget.
func TestCollectorObserveAllocs(t *testing.T) {
	col := buildCollectorTier(t, TierSummary)
	cid := col.jobs["A"].ContainerID
	tNow := col.Makespan()
	for i := 0; i < DefaultCompactPoints+8; i++ {
		tNow++
		col.RecordRun(traceEntryAt(cid, tNow, 0.5))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tNow++
		col.RecordRun(traceEntryAt(cid, tNow, 0.5))
	})
	if allocs != 0 {
		t.Fatalf("summary-tier RecordRun allocates %.1f per run, want 0", allocs)
	}
	if n := col.jobs["A"].growthC.n; n < 1000 {
		t.Fatalf("trajectory saw %d runs: the guard measured nothing", n)
	}
}

// TestJobAllocsIndependentOfMagnitudes: a summary-tier job's allocations
// do not depend on the values it records. Tracking a job and recording
// 1000 Algorithm 1 runs whose growth, limit and list values span six
// decades allocates exactly as much as recording 1000 runs of one value:
// the job record, its compact trajectory and the index entries. No store
// in this tier opens space per magnitude, as a per-job sketch did.
func TestJobAllocsIndependentOfMagnitudes(t *testing.T) {
	col := NewCollectorTier(sim.NewEngine(), 1, TierSummary)
	spread := make([]float64, 1000)
	for i := range spread {
		spread[i] = math.Pow(10, -3+6*float64(i)/float64(len(spread)-1))
	}
	flat := make([]float64, len(spread))
	for i := range flat {
		flat[i] = spread[0]
	}
	const runs = 100
	names := make([]string, 2*runs+3)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	next := 0
	entry := flowcon.TraceEntry{Containers: make([]flowcon.TraceContainer, 1)}
	track := func(vals []float64) {
		name := names[next]
		next++
		col.TrackJob(name, "w0", "m", name, 0)
		for i, v := range vals {
			entry.At = sim.Time(i)
			entry.Containers[0] = flowcon.TraceContainer{ID: name, G: v, GDefined: true, Limit: v, List: flowcon.WatchingList}
			col.RecordRun(entry)
		}
	}
	track(spread)
	wide := testing.AllocsPerRun(runs, func() { track(spread) })
	single := testing.AllocsPerRun(runs, func() { track(flat) })
	if wide != single {
		t.Fatalf("a job recording 1000 runs over 6 decades allocates %.0f, over one value %.0f: per-job allocations grow with magnitudes", wide, single)
	}
}

package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestParseTier(t *testing.T) {
	for in, want := range map[string]Tier{"": TierSummary, "summary": TierSummary, "dense": TierDense} {
		got, err := ParseTier(in)
		if err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTier("verbose"); err == nil {
		t.Fatal("unknown tier accepted")
	}
	if TierSummary.String() != "summary" || TierDense.String() != "dense" {
		t.Fatalf("tier strings: %v %v", TierSummary, TierDense)
	}
}

func TestSeriesSummaryObserve(t *testing.T) {
	s := NewSeriesSummary()
	if _, ok := s.First(); ok {
		t.Fatal("empty summary has a first point")
	}
	for i := 0; i < 100; i++ {
		s.Observe(float64(i), float64(i%10))
	}
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	m := s.Moments()
	if math.Abs(m.Mean()-4.5) > 1e-12 || m.Min() != 0 || m.Max() != 9 {
		t.Fatalf("moments mean=%g min=%g max=%g", m.Mean(), m.Min(), m.Max())
	}
	first, _ := s.First()
	last, _ := s.Last()
	if first.T != 0 || last.T != 99 {
		t.Fatalf("span = [%g, %g]", first.T, last.T)
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("memory estimate not positive")
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
	if cs.Len() != int(cs.Total()) {
		t.Fatalf("compaction triggered below budget: %d retained of %d", cs.Len(), cs.Total())
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
	if cs.Len() > 16 {
		t.Fatalf("budget violated: %d points", cs.Len())
	}
	if cs.Total() != 10000 {
		t.Fatalf("total = %d", cs.Total())
	}
	last, _ := cs.Last()
	if last.T != 9999 || last.V != 9999 {
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
	if _, ok := cs.Last(); ok {
		t.Fatal("empty series has a last point")
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

// TestCollectorObserveAllocs drives the collector's own observe path
// (the code the sampler calls every period) and pins it allocation-free
// at steady state in the summary tier.
func TestCollectorObserveAllocs(t *testing.T) {
	col := buildCollectorTier(t, TierSummary)
	tNow := col.Makespan() + 1
	j := col.jobs["A"]
	col.observe(j, kindCPU, tNow, 0.5)
	col.observe(j, kindEval, tNow, 1.25)
	allocs := testing.AllocsPerRun(1000, func() {
		tNow++
		col.observe(j, kindCPU, tNow, 0.5)
		col.observe(j, kindEval, tNow, 1.25)
	})
	if allocs != 0 {
		t.Fatalf("collector observe allocates %.1f per run, want 0", allocs)
	}
}

// TestJobAllocsIndependentOfMagnitudes pins what the run-level sketch
// buys: a summary-tier job's allocations do not depend on how many
// magnitudes its samples span. Once the run sketch has seen a value
// range, tracking a job and observing 1000 samples per kind spread over
// six decades allocates exactly as much as tracking a job and observing
// one sample — the job record, its compact series and the index entries.
// With a sketch per job, every new magnitude opened a bucket in that
// job's own slices.
func TestJobAllocsIndependentOfMagnitudes(t *testing.T) {
	col := NewCollectorTier(sim.NewEngine(), 1, TierSummary)
	spread := make([]float64, 1000)
	for i := range spread {
		spread[i] = math.Pow(10, -3+6*float64(i)/float64(len(spread)-1))
	}
	const runs = 100
	names := make([]string, 2*runs+3)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	next := 0
	track := func(vals []float64) {
		name := names[next]
		next++
		col.TrackJob(name, "w0", "m", name, 0)
		j := col.jobs[name]
		for k := range numKinds {
			for i, v := range vals {
				col.observe(j, k, float64(i), v)
			}
		}
	}
	track(spread) // the run sketch sees the range once
	wide := testing.AllocsPerRun(runs, func() { track(spread) })
	single := testing.AllocsPerRun(runs, func() { track(spread[:1]) })
	if wide != single {
		t.Fatalf("a job observing 1000 samples over 6 decades allocates %.0f, one sample %.0f: per-job allocations grow with magnitudes", wide, single)
	}
}

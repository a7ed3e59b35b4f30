package flowcon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{Alpha: 0.05, Beta: 2, InitialInterval: 20, MinLimit: 0.001}
}

func TestClassifyTransitions(t *testing.T) {
	alpha := 0.05
	cases := []struct {
		name string
		snap JobSnapshot
		want List
	}{
		{"new arrival undefined G", JobSnapshot{List: NewList, GDefined: false}, NewList},
		{"NL above alpha stays", JobSnapshot{List: NewList, G: 0.1, GDefined: true}, NewList},
		{"NL below alpha to WL", JobSnapshot{List: NewList, G: 0.01, GDefined: true}, WatchingList},
		{"WL below alpha to CL", JobSnapshot{List: WatchingList, G: 0.01, GDefined: true}, CompletingList},
		{"WL above alpha back to NL", JobSnapshot{List: WatchingList, G: 0.2, GDefined: true}, NewList},
		{"CL below alpha stays CL", JobSnapshot{List: CompletingList, G: 0.0, GDefined: true}, CompletingList},
		{"CL above alpha back to NL", JobSnapshot{List: CompletingList, G: 0.06, GDefined: true}, NewList},
		{"exactly alpha counts as growing", JobSnapshot{List: WatchingList, G: alpha, GDefined: true}, NewList},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classify(tc.snap, alpha); got != tc.want {
				t.Fatalf("classify = %v, want %v", got, tc.want)
			}
		})
	}
}

// A container needs two consecutive below-threshold measurements to reach
// CL — the hysteresis the paper builds into the NL→WL→CL descent.
func TestTwoStageDescent(t *testing.T) {
	s := JobSnapshot{ID: "a", List: NewList, G: 0.001, GDefined: true}
	s.List = classify(s, 0.05)
	if s.List != WatchingList {
		t.Fatalf("first descent = %v, want WL", s.List)
	}
	s.List = classify(s, 0.05)
	if s.List != CompletingList {
		t.Fatalf("second descent = %v, want CL", s.List)
	}
}

func TestStepEmpty(t *testing.T) {
	res := Step(nil, cfg())
	if len(res.Decisions) != 0 || res.AllCompleting {
		t.Fatalf("Step(nil) = %+v", res)
	}
}

func TestStepAllCompletingLiftsLimitsAndSignalsBackoff(t *testing.T) {
	snaps := []JobSnapshot{
		{ID: "a", List: CompletingList, G: 0.001, GDefined: true},
		{ID: "b", List: CompletingList, G: 0.002, GDefined: true},
	}
	res := Step(snaps, cfg())
	if !res.AllCompleting {
		t.Fatal("AllCompleting = false")
	}
	for _, d := range res.Decisions {
		if !d.SetLimit || d.Limit != 1 {
			t.Fatalf("decision %+v, want limit lifted to 1", d)
		}
	}
}

func TestStepGrowthProportionalLimits(t *testing.T) {
	// One healthy NL job (G=0.3) and one converged CL job (G=0.001),
	// n=2 -> CL floor = 1/(2*2) = 0.25 (the Figure 7 value).
	snaps := []JobSnapshot{
		{ID: "grower", List: NewList, G: 0.3, GDefined: true},
		{ID: "done", List: CompletingList, G: 0.001, GDefined: true},
	}
	res := Step(snaps, cfg())
	if res.AllCompleting {
		t.Fatal("AllCompleting = true with a grower present")
	}
	var grower, done Decision
	for _, d := range res.Decisions {
		switch d.ID {
		case "grower":
			grower = d
		case "done":
			done = d
		}
	}
	wantGrower := 0.3 / 0.301
	if math.Abs(grower.Limit-wantGrower) > 1e-9 {
		t.Fatalf("grower limit = %v, want %v", grower.Limit, wantGrower)
	}
	if done.Limit != 0.25 {
		t.Fatalf("CL limit = %v, want floor 0.25", done.Limit)
	}
}

func TestStepWatchingKeepsLimit(t *testing.T) {
	snaps := []JobSnapshot{
		{ID: "w", List: NewList, G: 0.01, GDefined: true}, // NL->WL this run
		{ID: "n", List: NewList, G: 0.5, GDefined: true},
	}
	res := Step(snaps, cfg())
	for _, d := range res.Decisions {
		if d.ID == "w" {
			if d.List != WatchingList {
				t.Fatalf("w list = %v, want WL", d.List)
			}
			if d.SetLimit {
				t.Fatal("WL container had its limit recomputed")
			}
		}
	}
}

func TestStepNewArrivalGetsFullLimit(t *testing.T) {
	snaps := []JobSnapshot{
		{ID: "old", List: CompletingList, G: 0.001, GDefined: true},
		{ID: "fresh", List: NewList, GDefined: false},
	}
	res := Step(snaps, cfg())
	for _, d := range res.Decisions {
		if d.ID == "fresh" {
			if !d.SetLimit || d.Limit != 1 {
				t.Fatalf("fresh arrival decision %+v, want limit 1", d)
			}
		}
	}
}

func TestStepZeroSumG(t *testing.T) {
	// All G zero but one container still in NL (e.g. zero-usage interval):
	// degenerate ΣG must not divide by zero; limits fall back to 1.
	snaps := []JobSnapshot{
		{ID: "a", List: NewList, G: 0, GDefined: true},
		{ID: "b", List: CompletingList, G: 0, GDefined: true},
	}
	res := Step(snaps, cfg())
	for _, d := range res.Decisions {
		if d.SetLimit && (d.Limit <= 0 || d.Limit > 1 || math.IsNaN(d.Limit)) {
			t.Fatalf("degenerate limit %v for %s", d.Limit, d.ID)
		}
	}
}

func TestStepFloorCappedAtOne(t *testing.T) {
	// beta*n < 1 would push the floor above 1; it must clamp.
	c := cfg()
	c.Beta = 0.2 // floor = 1/(0.2*1) = 5 -> clamp to 1
	snaps := []JobSnapshot{
		{ID: "a", List: CompletingList, G: 0.001, GDefined: true},
		{ID: "b", List: NewList, G: 0.5, GDefined: true},
	}
	res := Step(snaps, c)
	for _, d := range res.Decisions {
		if d.SetLimit && d.Limit > 1 {
			t.Fatalf("limit %v above 1", d.Limit)
		}
	}
}

func TestNextInterval(t *testing.T) {
	c := cfg().withDefaults()
	if got := c.nextInterval(20, true); got != 40 {
		t.Fatalf("backoff = %v, want 40", got)
	}
	if got := c.nextInterval(40, true); got != 80 {
		t.Fatalf("backoff = %v, want 80", got)
	}
	if got := c.nextInterval(160, false); got != 20 {
		t.Fatalf("reset = %v, want 20", got)
	}
	c.MaxInterval = 60
	if got := c.nextInterval(40, true); got != 60 {
		t.Fatalf("capped backoff = %v, want 60", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Alpha: 0, InitialInterval: 20},
		{Alpha: 1.2, InitialInterval: 20},
		{Alpha: 0.05, InitialInterval: 0},
		{Alpha: 0.05, InitialInterval: 20, Beta: -1},
		{Alpha: 0.05, InitialInterval: 20, MinLimit: 2},
		{Alpha: 0.05, InitialInterval: 20, MinLimit: -0.5},
		{Alpha: 0.05, InitialInterval: 20, MinLimit: math.NaN()},
		{Alpha: math.NaN(), InitialInterval: 20},
		{Alpha: 0.05, InitialInterval: 20, Beta: math.NaN()},
		{Alpha: 0.05, InitialInterval: math.NaN()},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			c.withDefaults()
		}()
	}
}

func TestListString(t *testing.T) {
	if NewList.String() != "NL" || WatchingList.String() != "WL" || CompletingList.String() != "CL" {
		t.Fatal("list strings wrong")
	}
	if List(7).String() != "List(7)" {
		t.Fatal("out-of-range list string wrong")
	}
}

// Property: every limit Step sets is in (0, 1], and decisions preserve the
// input container set exactly once each.
func TestStepPropertyLimitsValid(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%12) + 1
		snaps := make([]JobSnapshot, n)
		for i := range snaps {
			snaps[i] = JobSnapshot{
				ID:       string(rune('a' + i)),
				List:     List(rng.Intn(3)),
				G:        rng.Float64() * 0.5,
				GDefined: rng.Intn(5) != 0,
			}
		}
		res := Step(snaps, cfg())
		if len(res.Decisions) != n {
			return false
		}
		seen := map[string]bool{}
		for _, d := range res.Decisions {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
			if d.SetLimit && (d.Limit <= 0 || d.Limit > 1 || math.IsNaN(d.Limit)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: classification is monotone in G — if a container with G=g1 is
// classified into NL, any container in the same list with G>g1 is too.
func TestClassifyPropertyMonotone(t *testing.T) {
	f := func(g1, g2 float64, list uint8) bool {
		a, b := math.Abs(g1), math.Abs(g2)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		l := List(list % 3)
		la := classify(JobSnapshot{List: l, G: a, GDefined: true}, 0.05)
		lb := classify(JobSnapshot{List: l, G: b, GDefined: true}, 0.05)
		// lb must never be a "worse" list than la.
		return lb <= la
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllCompleting is reported iff every decision lands in CL.
func TestStepPropertyAllCompletingConsistent(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%8) + 1
		snaps := make([]JobSnapshot, n)
		for i := range snaps {
			snaps[i] = JobSnapshot{
				ID:       string(rune('a' + i)),
				List:     List(rng.Intn(3)),
				G:        rng.Float64() * 0.2,
				GDefined: true,
			}
		}
		res := Step(snaps, cfg())
		all := true
		for _, d := range res.Decisions {
			if d.List != CompletingList {
				all = false
			}
		}
		return all == res.AllCompleting
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package resource

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// allocateMap is Allocator.Allocate keyed by claim id, for lookups in assertions.
func allocateMap(capacity float64, claims []Claim) map[string]float64 {
	m := make(map[string]float64, len(claims))
	for _, a := range new(Allocator).Allocate(capacity, claims) {
		m[a.ID] = a.Amount
	}
	return m
}

func TestAllocateEmptyAndZero(t *testing.T) {
	if got := new(Allocator).Allocate(1.0, nil); len(got) != 0 {
		t.Fatalf("new(Allocator).Allocate(1, nil) = %v, want empty", got)
	}
	got := new(Allocator).Allocate(0, []Claim{{ID: "a", Limit: 1, Demand: 1}})
	if got[0].Amount != 0 {
		t.Fatalf("zero capacity allocated %v", got[0].Amount)
	}
}

func TestAllocateSingleUnlimited(t *testing.T) {
	got := allocateMap(1.0, []Claim{{ID: "a", Limit: 1, Demand: 2}})
	if !approx(got["a"], 1.0) {
		t.Fatalf("single claim got %v, want full capacity", got["a"])
	}
}

func TestAllocateSingleDemandBound(t *testing.T) {
	got := allocateMap(1.0, []Claim{{ID: "a", Limit: 1, Demand: 0.3}})
	if !approx(got["a"], 0.3) {
		t.Fatalf("got %v, want demand-bound 0.3", got["a"])
	}
}

// Limits are proportional weights (docker --cpu-shares): a container alone
// on the node uses the whole node regardless of its weight — the Figure 7
// behaviour where VAE returns to full usage once its competitors exit.
func TestAllocateWeightIgnoredWhenAlone(t *testing.T) {
	got := allocateMap(1.0, []Claim{{ID: "vae", Limit: 0.25, Demand: 1.0}})
	if !approx(got["vae"], 1.0) {
		t.Fatalf("solo weighted container got %v, want 1.0 (work conserving)", got["vae"])
	}
}

// Under contention, weights bind proportionally: the Figure 7 moment at
// t=40s where VAE is limited to 0.25 and MNIST to 1 splits 0.2/0.8 (the
// paper reads it as 25%/75%).
func TestAllocateWeightsUnderContention(t *testing.T) {
	got := allocateMap(1.0, []Claim{
		{ID: "vae", Limit: 0.25, Demand: 1.0},
		{ID: "mnist", Limit: 1.0, Demand: 1.0},
	})
	if !approx(got["vae"], 0.2) || !approx(got["mnist"], 0.8) {
		t.Fatalf("got vae=%v mnist=%v, want 0.2/0.8", got["vae"], got["mnist"])
	}
}

func TestAllocateEqualSharesNA(t *testing.T) {
	// NA baseline: all limits 1, ample demand -> equal split.
	got := allocateMap(1.0, []Claim{
		{ID: "a", Limit: 1, Demand: 1},
		{ID: "b", Limit: 1, Demand: 1},
		{ID: "c", Limit: 1, Demand: 1},
	})
	for id, a := range got {
		if !approx(a, 1.0/3) {
			t.Fatalf("claim %s got %v, want 1/3", id, a)
		}
	}
}

func TestAllocateLowDemandSlackRedistributed(t *testing.T) {
	// The Section 5.4 observation: LSTM-CFC demands only ~0.2; the other
	// job should absorb the slack (19%/79%-style split).
	got := allocateMap(1.0, []Claim{
		{ID: "cfc", Limit: 1, Demand: 0.2},
		{ID: "vae", Limit: 1, Demand: 1.0},
	})
	if !approx(got["cfc"], 0.2) || !approx(got["vae"], 0.8) {
		t.Fatalf("got cfc=%v vae=%v, want 0.2/0.8", got["cfc"], got["vae"])
	}
}

func TestAllocateDemandSlackFlowsToLowWeight(t *testing.T) {
	// One container weighted 0.1 but hungry, one satisfied early: the
	// slack the satisfied container leaves flows to the low-weight one —
	// "the unused option will be utilized by others".
	got := allocateMap(1.0, []Claim{
		{ID: "limited", Limit: 0.1, Demand: 1.0},
		{ID: "small", Limit: 1.0, Demand: 0.3},
	})
	if !approx(got["small"], 0.3) || !approx(got["limited"], 0.7) {
		t.Fatalf("got limited=%v small=%v, want 0.7/0.3 (work conserving)", got["limited"], got["small"])
	}
}

func TestAllocateProportionalToLimits(t *testing.T) {
	// Three contending containers with FlowCon-style limits: allocation is
	// proportional to limits when all demands exceed their share.
	got := allocateMap(1.0, []Claim{
		{ID: "a", Limit: 0.5, Demand: 1},
		{ID: "b", Limit: 0.3, Demand: 1},
		{ID: "c", Limit: 0.2, Demand: 1},
	})
	if !approx(got["a"], 0.5) || !approx(got["b"], 0.3) || !approx(got["c"], 0.2) {
		t.Fatalf("got %v, want 0.5/0.3/0.2", got)
	}
}

func TestAllocateLowWeightsStillUseFullNode(t *testing.T) {
	// Because limits are weights, a configuration summing below 1 never
	// strands capacity — only ratios matter.
	got := allocateMap(1.0, []Claim{
		{ID: "a", Limit: 0.2, Demand: 1},
		{ID: "b", Limit: 0.2, Demand: 1},
	})
	if !approx(got["a"], 0.5) || !approx(got["b"], 0.5) {
		t.Fatalf("got %v, want 0.5 each (weights renormalize)", got)
	}
}

// The FlowCon win mechanism: nine converged containers floored at weight
// 0.05 leave the single growing container 1/1.45 ≈ 0.69 of the node —
// nearly 7x its fair share under NA.
func TestAllocateFlooredConvergedPlusOneGrower(t *testing.T) {
	claims := []Claim{{ID: "grower", Limit: 1.0, Demand: 1}}
	for i := 0; i < 9; i++ {
		claims = append(claims, Claim{ID: fmt.Sprintf("cl%d", i), Limit: 0.05, Demand: 1})
	}
	got := allocateMap(1.0, claims)
	if !approx(got["grower"], 1.0/1.45) {
		t.Fatalf("grower got %v, want %v", got["grower"], 1.0/1.45)
	}
	for i := 0; i < 9; i++ {
		if !approx(got[fmt.Sprintf("cl%d", i)], 0.05/1.45) {
			t.Fatalf("converged container got %v, want %v", got[fmt.Sprintf("cl%d", i)], 0.05/1.45)
		}
	}
}

func TestAllocatePanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name     string
		capacity float64
		claims   []Claim
	}{
		{"negative capacity", -1, nil},
		{"NaN capacity", math.NaN(), nil},
		{"zero limit", 1, []Claim{{ID: "a", Limit: 0, Demand: 1}}},
		{"limit above one", 1, []Claim{{ID: "a", Limit: 1.5, Demand: 1}}},
		{"NaN limit", 1, []Claim{{ID: "a", Limit: 1, Demand: 1}, {ID: "b", Limit: math.NaN(), Demand: 1}}},
		{"negative demand", 1, []Claim{{ID: "a", Limit: 1, Demand: -1}}},
		{"NaN demand", 1, []Claim{{ID: "a", Limit: 1, Demand: math.NaN()}}},
		{"infinite demand", 1, []Claim{{ID: "a", Limit: 1, Demand: math.Inf(1)}}},
	}
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a Allocator
			mustPanic(t, "Allocator.Allocate", func() { a.Allocate(tc.capacity, tc.claims) })
		})
	}
}

// randomClaims builds a reproducible random claim set from quick's inputs.
func randomClaims(seed int64, n int) []Claim {
	rng := rand.New(rand.NewSource(seed))
	claims := make([]Claim, n)
	for i := range claims {
		claims[i] = Claim{
			ID:     string(rune('a' + i)),
			Limit:  0.05 + 0.95*rng.Float64(),
			Demand: 1.5 * rng.Float64(),
		}
	}
	return claims
}

// Property: allocations are non-negative, never exceed demand, and never
// exceed capacity in total.
func TestAllocatePropertyFeasible(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%10) + 1
		claims := randomClaims(seed, n)
		total := 0.0
		for _, a := range new(Allocator).Allocate(1.0, claims) {
			if a.Amount < -1e-12 {
				return false
			}
			total += a.Amount
		}
		for i, a := range new(Allocator).Allocate(1.0, claims) {
			if a.Amount > claims[i].Demand+1e-9 {
				return false
			}
		}
		return total <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: work conservation — capacity is fully used unless every
// claim's demand is satisfied; no claim exceeds its demand.
func TestAllocatePropertyWorkConserving(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%10) + 1
		claims := randomClaims(seed, n)
		alloc := new(Allocator).Allocate(1.0, claims)
		total, demandSum := 0.0, 0.0
		for i, a := range alloc {
			if a.Amount > claims[i].Demand+1e-9 {
				return false
			}
			total += a.Amount
			demandSum += math.Min(claims[i].Demand, 1.0)
		}
		if demandSum >= 1.0 {
			return approx(total, 1.0)
		}
		// Demand below capacity: everyone fully satisfied.
		for i, a := range alloc {
			if !approx(a.Amount, math.Min(claims[i].Demand, 1.0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — identical input yields identical output.
func TestAllocatePropertyDeterministic(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%10) + 1
		claims := randomClaims(seed, n)
		a := new(Allocator).Allocate(1.0, claims)
		b := new(Allocator).Allocate(1.0, claims)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising one claim's limit never reduces its own allocation
// (monotonicity in the knob Algorithm 1 turns).
func TestAllocatePropertyLimitMonotone(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%8) + 2
		claims := randomClaims(seed, n)
		before := new(Allocator).Allocate(1.0, claims)
		bumped := make([]Claim, n)
		copy(bumped, claims)
		bumped[0].Limit = math.Min(1.0, bumped[0].Limit*1.5)
		after := new(Allocator).Allocate(1.0, bumped)
		return after[0].Amount >= before[0].Amount-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	want := []string{CPU: "cpu", Memory: "memory", BlkIO: "blkio", NetIO: "netio"}
	if len(want) != int(NumKinds) {
		t.Fatalf("test lists %d kinds, NumKinds = %d", len(want), NumKinds)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() != want[k] {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want[k])
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("out-of-range kind = %q", Kind(99).String())
	}
}

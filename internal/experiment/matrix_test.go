package experiment

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The run matrix: every run-level pin reads its runs from one table keyed
// (scenario, seed, watch), whose cells run at most once per test binary.
// Readers run a parallel subtest per (scenario, seed), so cells spread
// across GOMAXPROCS. A new run-level pin is a reader or a watch, not a
// new loop over the scenarios.

// A watch is one way of observing a run; none may change what the run
// does (TestOutcomeIndependentOfObservation).
type watch struct {
	name          string
	tier          metrics.Tier
	period, poll  float64 // sample period; statsPoller period (0: none)
	spans, digest bool    // record lifecycle spans; hash the archive
	shards        int     // Spec.SimShards, which is ignored
}

const (
	summaryWatch = iota
	polledWatch
	dense1Watch
	dense15Watch
	spansWatch
)

var watches = []watch{
	summaryWatch: {name: "summary, no collector tick", tier: metrics.TierSummary, period: 2, digest: true},
	polledWatch:  {name: "summary polled every 1.5 s, SimShards 4", tier: metrics.TierSummary, period: 2, poll: 1.5, shards: 4},
	dense1Watch:  {name: "dense every 1 s", tier: metrics.TierDense, period: 1},
	dense15Watch: {name: "dense every 15 s", tier: metrics.TierDense, period: 15},
	spansWatch:   {name: "dense every 2 s with lifecycle spans", tier: metrics.TierDense, period: 2, spans: true, digest: true},
}

// A cell is the run's Result without its collector and tracer, and what
// they were read for. Its Events leave out the statsPoller's polls.
type cell struct {
	*Result
	digest string // first 8 bytes of sha256(Export().WriteJSON), if the watch hashes
	memory int    // Collector.MemoryBytes()
}

var matrix sync.Map // [3]any{scenario, seed, watch} → func() (cell, error)

var matrixRuns atomic.Int64

func TestMain(m *testing.M) {
	m.Run()
	if testing.Verbose() {
		fmt.Printf("run matrix: %d runs\n", matrixRuns.Load())
	}
}

// matrixCell returns a cell, running it if no test has yet.
func matrixCell(t *testing.T, scenario string, seed int64, w int) cell {
	t.Helper()
	run, _ := matrix.LoadOrStore([3]any{scenario, seed, w},
		sync.OnceValues(func() (cell, error) { return runCell(scenario, seed, watches[w]) }))
	c, err := run.(func() (cell, error))()
	if err != nil {
		t.Fatalf("%s seed %d, %s: %v", scenario, seed, watches[w].name, err)
	}
	if c.ShardProfile != nil {
		t.Errorf("%s seed %d, %s: ShardProfile = %+v, want nil", scenario, seed, watches[w].name, c.ShardProfile)
	}
	return c
}

func runCell(scenario string, seed int64, w watch) (cell, error) {
	matrixRuns.Add(1)
	sc, ok := ScenarioByName(scenario)
	if !ok {
		return cell{}, fmt.Errorf("scenario %q not registered", scenario)
	}
	spec := sc.Spec(seed)
	spec.TraceLevel, spec.SamplePeriod, spec.SimShards = w.tier, w.period, w.shards
	if w.spans {
		spec.Tracer = telemetry.NewTracer(0)
	}
	// The poller hides the policy from RunE's counts, so count its
	// FlowCon controllers here.
	var fcs []*sched.FlowCon
	polls := 0
	if inner := spec.NewPolicy; w.poll > 0 {
		spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
			p := inner(tr)
			if fc, ok := p.(*sched.FlowCon); ok {
				fcs = append(fcs, fc)
			}
			return statsPoller{p, w.poll, &polls}
		}
	}
	res, err := RunE(spec)
	if err != nil {
		return cell{}, err
	}
	for _, fc := range fcs {
		if c := fc.Controller(); c != nil {
			res.AlgorithmRuns += c.Runs()
			res.LimitUpdates += c.LimitUpdates()
		}
	}
	res.Events -= polls
	c := cell{Result: res, memory: res.Collector.MemoryBytes()}
	if w.digest {
		h := sha256.New()
		err = res.Collector.Export().WriteJSON(h)
		c.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	res.Collector, res.Tracer = nil, nil
	return c, err
}

// statsPoller wraps a run's policy and also reads every node the way an
// outside monitor would: docker stats and `docker ps -a` every period.
type statsPoller struct {
	sched.Policy
	period float64
	polls  *int
}

func (p statsPoller) Attach(engine sim.Scheduler, node sched.Node) {
	p.Policy.Attach(engine, node)
	var poll func()
	poll = func() {
		*p.polls++
		node.RunningStats()
		node.(runtime.Runtime).PS(true)
		engine.After(p.period, sim.PriorityMetric, "test.poll", poll)
	}
	engine.After(p.period, sim.PriorityMetric, "test.poll", poll)
}

// pinnedRuns is every sweep-sized scenario at seeds 1 and 2, or seed 1
// under -short or -race (trimmed).
func pinnedRuns() (scenarios []string, seeds []int64, trimmed bool) {
	for _, sc := range Scenarios() {
		scenarios = append(scenarios, sc.Name)
	}
	if testing.Short() || raceEnabled {
		return scenarios, []int64{1}, true
	}
	return scenarios, []int64{1, 2}, false
}

// eachRun runs read as a parallel subtest for every scenario × seed.
func eachRun(t *testing.T, scenarios []string, seeds []int64, read func(t *testing.T, scenario string, seed int64)) {
	for _, sc := range scenarios {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/%d", sc, seed), func(t *testing.T) {
				t.Parallel()
				read(t, sc, seed)
			})
		}
	}
}

// readPinTable runs read over pinnedRuns and checks every value it reads
// against table. On any failure it logs the entries regenerated, so that
// a declared re-pin is one paste.
func readPinTable[V comparable](t *testing.T, name string, table map[string]V, read func(t *testing.T, scenario string, seed int64) map[string]V) {
	scenarios, seeds, trimmed := pinnedRuns()
	var mu sync.Mutex
	got, ran := map[string]V{}, 0
	literal := func(v V) string { return strings.TrimPrefix(fmt.Sprintf("%#v", v), fmt.Sprintf("%T", v)) }
	t.Cleanup(func() {
		full := !trimmed && ran == len(scenarios)*len(seeds) // no -short, -race or -run cut
		if full && len(got) < len(table) {
			t.Errorf("read %d keys, %d pinned in %s (stale entries?)", len(got), len(table), name)
		}
		if !t.Failed() {
			return
		}
		// Segment by segment ("chaos-day" before "chaos-day-scratch"),
		// summary before dense, as the tables list them.
		order := strings.NewReplacer("/summary/", "\x00\x01\x00", "/dense/", "\x00\x02\x00", "/", "\x00")
		keys := slices.SortedFunc(maps.Keys(got), func(a, b string) int { return strings.Compare(order.Replace(a), order.Replace(b)) })
		width := 0
		for _, k := range keys {
			width = max(width, len(k)+3)
		}
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%-*s %s,\n", width, fmt.Sprintf("%q:", k), literal(got[k]))
		}
		t.Logf("regenerated %s entries (every pinned run read: %t):\n%s", name, full, &b)
	})
	eachRun(t, scenarios, seeds, func(t *testing.T, sc string, seed int64) {
		vals := read(t, sc, seed)
		for k, v := range vals {
			if want, ok := table[k]; !ok {
				t.Errorf("%s: not pinned in %s (new scenario? add it)", k, name)
			} else if v != want {
				t.Errorf("%s: %s, want %s", k, literal(v), literal(want))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		ran++
		maps.Copy(got, vals)
	})
}

package flowcon_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// refSample is one container's monitor window: the sample that Eq. 1–2
// difference the next one against.
type refSample struct{ at, eval, cpu float64 }

// refCycle is Eq. 1–2, Algorithm 1 and Algorithm 2's bookkeeping
// transcribed from the paper with plain maps. It shares no code with
// flowcon.Cycle, Monitor or Step, so the two can be run side by side on
// the same input and disagree.
type refCycle struct {
	alpha, beta, minLimit   float64
	itval0, maxItval, itval float64
	rt                      flowcon.Runtime

	window map[string]refSample
	list   map[string]flowcon.List
	limit  map[string]float64 // the limit last applied through rt
}

func newRefCycle(cfg flowcon.Config, rt flowcon.Runtime) *refCycle {
	r := &refCycle{
		alpha: cfg.Alpha, beta: cfg.Beta, minLimit: cfg.MinLimit,
		itval0: cfg.InitialInterval, maxItval: cfg.MaxInterval, itval: cfg.InitialInterval,
		rt:     rt,
		window: map[string]refSample{},
		list:   map[string]flowcon.List{},
		limit:  map[string]float64{},
	}
	if r.beta == 0 {
		r.beta = 2 // β is unspecified in the paper; 2 reproduces Figure 7's 0.25
	}
	if r.minLimit == 0 {
		r.minLimit = 0.001
	}
	return r
}

// started is the New Cons listener (Algorithm 2 lines 5-9): the container
// joins NL at the full limit it launched with, and itval resets.
func (r *refCycle) started(id string) {
	r.list[id] = flowcon.NewList
	r.limit[id] = 1
	r.itval = r.itval0
}

// exited is the Finished Cons listener (Algorithm 2 lines 10-15).
func (r *refCycle) exited(id string) {
	delete(r.window, id)
	delete(r.list, id)
	delete(r.limit, id)
	r.itval = r.itval0
}

// run executes Algorithm 1 once at now over stats, applies the limits
// that changed, and sets the next interval. It reports whether every
// container sat in CL.
func (r *refCycle) run(now float64, stats []flowcon.Stat) bool {
	const (
		NL = flowcon.NewList
		WL = flowcon.WatchingList
		CL = flowcon.CompletingList
	)
	n := len(stats)
	g := make([]float64, n)
	measured := make([]bool, n)
	present := map[string]bool{}
	for i, s := range stats {
		present[s.ID] = true
		w, seen := r.window[s.ID]
		if !seen || now <= w.at {
			// No interval to difference over: a first sighting opens the
			// window, a second run in the same instant keeps it.
			if !seen {
				r.window[s.ID] = refSample{now, s.Eval, s.CPUSeconds}
			}
			continue
		}
		dt := now - w.at
		p := math.Abs(s.Eval-w.eval) / dt // Eq. 1: progress score
		usage := (s.CPUSeconds - w.cpu) / dt
		if usage > 1e-6 {
			g[i] = p / usage // Eq. 2: growth efficiency
		}
		measured[i] = true
		r.window[s.ID] = refSample{now, s.Eval, s.CPUSeconds}
	}
	// A container gone from the stats leaves the monitor and the lists,
	// whether or not its exit was heard.
	for id := range r.window {
		if !present[id] {
			delete(r.window, id)
		}
	}
	for id := range r.list {
		if !present[id] {
			delete(r.list, id)
			delete(r.limit, id)
		}
	}

	// Lines 2-13: classification.
	lists := make([]flowcon.List, n)
	allCL := n > 0
	for i, s := range stats {
		cur, ok := r.list[s.ID]
		if !ok {
			cur = NL // a container no listener announced enters as new
		}
		switch {
		case !measured[i] || g[i] >= r.alpha:
			lists[i] = NL
		case cur == NL:
			lists[i] = WL
		default:
			lists[i] = CL
		}
		if lists[i] != CL {
			allCL = false
		}
	}

	// Lines 14-26: limits.
	limit := make([]float64, n)
	set := make([]bool, n)
	if allCL {
		for i := range stats {
			limit[i], set[i] = 1, true
		}
	} else {
		sumG := 0.0
		for i := range stats {
			if measured[i] {
				sumG += g[i]
			}
		}
		floor := 1 / (r.beta * float64(n))
		if floor > 1 {
			floor = 1
		}
		for i := range stats {
			share := 1.0 // ΣG = 0 carries no information: free competition
			if sumG > 0 {
				share = g[i] / sumG
			}
			if share < r.minLimit {
				share = r.minLimit
			}
			if share > 1 {
				share = 1
			}
			switch lists[i] {
			case CL:
				limit[i], set[i] = share, true
				if limit[i] < floor {
					limit[i] = floor
				}
			case NL:
				limit[i], set[i] = share, true
				if !measured[i] {
					limit[i] = 1
				}
			}
			// WL keeps its limit (line 24).
		}
	}
	for i, s := range stats {
		r.list[s.ID] = lists[i]
		if !set[i] {
			continue
		}
		if cur, ok := r.limit[s.ID]; ok && cur == limit[i] {
			continue // docker update only for a changed limit
		}
		if r.rt.SetCPULimit(s.ID, limit[i]) != nil {
			continue
		}
		r.limit[s.ID] = limit[i]
	}

	if allCL {
		r.itval *= 2
		if r.maxItval > 0 && r.itval > r.maxItval {
			r.itval = r.maxItval
		}
	} else {
		r.itval = r.itval0
	}
	return allCL
}

// limitCall is one SetCPULimit call and whether it succeeded.
type limitCall struct {
	id    string
	limit float64
	ok    bool
}

// replayRuntime answers SetCPULimit for a replayed run: a call succeeds
// for a container in the run's stats with a limit in (0,1], unless fail
// says otherwise. It records every call.
type replayRuntime struct {
	stats []flowcon.Stat
	fail  func(id string) bool
	calls []limitCall
}

func (r *replayRuntime) begin(stats []flowcon.Stat) {
	r.stats, r.calls = stats, r.calls[:0]
}

func (r *replayRuntime) RunningStats() []flowcon.Stat { return r.stats }

func (r *replayRuntime) SetCPULimit(id string, limit float64) error {
	ok := limit > 0 && limit <= 1 && slices.ContainsFunc(r.stats, func(s flowcon.Stat) bool { return s.ID == id })
	if ok && r.fail != nil && r.fail(id) {
		ok = false
	}
	r.calls = append(r.calls, limitCall{id, limit, ok})
	if !ok {
		return fmt.Errorf("replay: update %s to %g refused", id, limit)
	}
	return nil
}

// pair drives a Cycle and a refCycle with one input stream and fails the
// test at the first difference. ids are every container the stream has
// named, whose lists and limits are compared after each step.
type pair struct {
	t      *testing.T
	cyc    *flowcon.Cycle
	ref    *refCycle
	crt    *replayRuntime
	rrt    *replayRuntime
	ids    []string
	step   int
	stream string
}

func newPair(t *testing.T, stream string, cfg flowcon.Config) *pair {
	p := &pair{t: t, crt: &replayRuntime{}, rrt: &replayRuntime{}, stream: stream}
	p.cyc = flowcon.NewCycle(cfg, p.crt)
	p.ref = newRefCycle(cfg, p.rrt)
	return p
}

func (p *pair) name(id string) {
	if !slices.Contains(p.ids, id) {
		p.ids = append(p.ids, id)
	}
}

func (p *pair) started(id string) {
	p.name(id)
	p.cyc.Started(id)
	p.ref.started(id)
	p.check("start " + id)
}

func (p *pair) exited(id string) {
	p.name(id)
	p.cyc.Exited(id)
	p.ref.exited(id)
	p.check("exit " + id)
}

func (p *pair) run(now float64, stats []flowcon.Stat, fail func(string) bool) {
	for _, s := range stats {
		p.name(s.ID)
	}
	p.crt.begin(stats)
	p.rrt.begin(stats)
	p.crt.fail, p.rrt.fail = fail, fail
	res := p.cyc.Run(now, stats)
	allCL := p.ref.run(now, stats)
	where := fmt.Sprintf("run at %g over %d containers", now, len(stats))
	if res.AllCompleting != allCL {
		p.t.Fatalf("%s step %d, %s: AllCompleting %v, reference %v", p.stream, p.step, where, res.AllCompleting, allCL)
	}
	if !slices.EqualFunc(p.crt.calls, p.rrt.calls, func(a, b limitCall) bool {
		return a.id == b.id && a.ok == b.ok && math.Float64bits(a.limit) == math.Float64bits(b.limit)
	}) {
		p.t.Fatalf("%s step %d, %s: SetCPULimit calls %+v, reference %+v", p.stream, p.step, where, p.crt.calls, p.rrt.calls)
	}
	p.check(where)
}

// check compares the interval and every named container's list and limit.
func (p *pair) check(where string) {
	p.t.Helper()
	defer func() { p.step++ }()
	if got, want := p.cyc.Interval(), p.ref.itval; math.Float64bits(got) != math.Float64bits(want) {
		p.t.Fatalf("%s step %d, %s: interval %g, reference %g", p.stream, p.step, where, got, want)
	}
	for _, id := range p.ids {
		l, ok := p.cyc.ListOf(id)
		rl, rok := p.ref.list[id]
		if ok != rok || l != rl {
			p.t.Fatalf("%s step %d, %s: %s in %v (%v), reference %v (%v)", p.stream, p.step, where, id, l, ok, rl, rok)
		}
		lim, ok := p.cyc.LimitOf(id)
		rlim, rok := p.ref.limit[id]
		if ok != rok || math.Float64bits(lim) != math.Float64bits(rlim) {
			p.t.Fatalf("%s step %d, %s: %s limit %g (%v), reference %g (%v)", p.stream, p.step, where, id, lim, ok, rlim, rok)
		}
	}
}

// streamEvent is one thing a worker's controller saw: a start or an exit
// notification, or an Algorithm 1 run's RunningStats read.
type streamEvent struct {
	start, exit string
	now         float64
	stats       []flowcon.Stat // a run when non-nil
}

// stream is one worker's recorded input, with its controller's config.
type stream struct {
	cfg    flowcon.Config
	events []streamEvent
}

// recordingNode hands the controller its node unchanged and records each
// notification and RunningStats read it delivers.
type recordingNode struct {
	sched.Node
	engine sim.Scheduler
	s      *stream
}

func (n recordingNode) RunningStats() []flowcon.Stat {
	stats := n.Node.RunningStats()
	n.s.events = append(n.s.events, streamEvent{now: float64(n.engine.Now()), stats: append([]flowcon.Stat{}, stats...)})
	return stats
}

func (n recordingNode) OnStart(fn func(runtime.Container)) {
	n.Node.OnStart(func(c runtime.Container) {
		n.s.events = append(n.s.events, streamEvent{start: c.ID})
		fn(c)
	})
}

func (n recordingNode) OnExit(fn func(runtime.Container)) {
	n.Node.OnExit(func(c runtime.Container) {
		n.s.events = append(n.s.events, streamEvent{exit: c.ID})
		fn(c)
	})
}

// recordingPolicy is the scenario's FlowCon policy on a recordingNode.
type recordingPolicy struct {
	*sched.FlowCon
	streams *[]*stream
}

func (p recordingPolicy) Attach(engine sim.Scheduler, node sched.Node) {
	s := &stream{cfg: p.Config}
	*p.streams = append(*p.streams, s)
	p.FlowCon.Attach(engine, recordingNode{node, engine, s})
}

// recordStreams runs a registered scenario at seed 1 and returns each
// worker's controller input.
func recordStreams(t *testing.T, scenario string) []*stream {
	sc, ok := experiment.ScenarioByName(scenario)
	if !ok {
		t.Fatalf("no scenario %q", scenario)
	}
	spec := sc.Spec(1)
	var streams []*stream
	inner := spec.NewPolicy
	spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
		fc, ok := inner(tr).(*sched.FlowCon)
		if !ok {
			t.Fatalf("%s: policy is not FlowCon", scenario)
		}
		return recordingPolicy{fc, &streams}
	}
	if _, err := experiment.RunE(spec); err != nil {
		t.Fatal(err)
	}
	return streams
}

// TestCycleMatchesReference replays what every worker's controller saw in
// real runs into the Cycle and the reference, which must agree bit for
// bit on every list, limit, SetCPULimit call, interval and AllCompleting.
func TestCycleMatchesReference(t *testing.T) {
	for _, scenario := range []string{"fixed", "uniform5", "poisson", "chaos-day", "cluster-scale"} {
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			streams := recordStreams(t, scenario)
			runs, calls := 0, 0
			for w, s := range streams {
				p := newPair(t, fmt.Sprintf("%s worker %d", scenario, w), s.cfg)
				for _, ev := range s.events {
					switch {
					case ev.start != "":
						p.started(ev.start)
					case ev.exit != "":
						p.exited(ev.exit)
					default:
						p.run(ev.now, ev.stats, nil)
						runs++
						calls += len(p.crt.calls)
					}
				}
			}
			if runs == 0 || calls == 0 {
				t.Fatalf("%d Algorithm 1 runs and %d limit updates recorded", runs, calls)
			}
			t.Logf("%d workers, %d runs, %d limit updates", len(streams), runs, calls)
		})
	}
}

// FuzzCycleMatchesReference drives the Cycle and the reference with
// random starts, exits and RunningStats reads: containers in any order,
// some never announced, some gone without an exit, same-instant reruns,
// stalled CPU counters and refused limit updates.
func FuzzCycleMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(20), uint8(1), uint8(0), []byte{0, 0, 0, 1, 2, 3, 7, 5, 9, 9, 9, 9, 9, 9, 2, 3, 4, 200, 1, 3, 0, 1, 0})
	f.Add(uint8(50), uint8(0), uint8(0), uint8(1), []byte{2, 63, 130, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 3, 63, 1, 0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(7), uint8(100), uint8(2), []byte{0, 1, 0, 2, 1, 1, 2, 6, 9, 4, 8, 8, 8, 8, 2, 6, 9, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, alphaPct, betaTenths, minMil, capSteps uint8, ops []byte) {
		cfg := flowcon.Config{
			Alpha:           float64(alphaPct%99+1) / 100,
			Beta:            float64(betaTenths%50) / 10, // 0 takes the default
			InitialInterval: 20,
			MaxInterval:     float64(capSteps%4) * 40,
			MinLimit:        float64(minMil%200) / 1000, // 0 takes the default
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		const pool = 6
		var eval, cpu [pool]float64
		id := func(i int) string { return fmt.Sprintf("c%d", i) }
		p := newPair(t, "fuzz", cfg)
		now := 0.0
		for steps := 0; len(ops) > 0 && steps < 200; steps++ {
			switch op := next(); op % 4 {
			case 0:
				p.started(id(int(next()) % pool))
			case 1:
				p.exited(id(int(next()) % pool))
			default:
				mask, order, dt := next(), next(), next()
				var refuse byte
				if op%4 == 3 {
					refuse = next()
				}
				now += float64(dt%8) * 2.5 // 0: a second run in the same instant
				var stats []flowcon.Stat
				for i := 0; i < pool; i++ {
					if mask>>i&1 == 0 {
						continue
					}
					eval[i] += float64(int8(next())) / 16
					cpu[i] += float64(next()%32) / 8 // 0: no CPU, so no growth
					stats = append(stats, flowcon.Stat{ID: id(i), Eval: eval[i], CPUSeconds: cpu[i]})
				}
				// Any order: a rotation, then an optional reversal.
				if len(stats) > 0 {
					k := int(order) % len(stats)
					stats = append(slices.Clone(stats[k:]), stats[:k]...)
				}
				if order&0x80 != 0 {
					slices.Reverse(stats)
				}
				p.run(now, stats, func(cid string) bool { return refuse>>(cid[1]-'0')&1 == 1 })
			}
		}
	})
}

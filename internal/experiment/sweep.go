package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// defaultParallelism overrides the sweep worker-pool width for callers
// that cannot thread SweepOptions through (the figure regenerators, the
// flowcon-sim -parallel flag). Zero or negative means runtime.GOMAXPROCS.
var defaultParallelism atomic.Int64

// DefaultParallelism returns the worker-pool width used when
// SweepOptions.Parallelism is zero.
func DefaultParallelism() int {
	if n := defaultParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultParallelism sets the pool width used when
// SweepOptions.Parallelism is zero. n <= 0 restores the GOMAXPROCS
// default. Safe for concurrent use; running sweeps keep their width.
func SetDefaultParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int64(n))
}

// SweepOptions tunes a Sweep call.
type SweepOptions struct {
	// Parallelism bounds the worker pool (0 = DefaultParallelism, which
	// itself defaults to runtime.GOMAXPROCS; 1 = serial).
	Parallelism int
	// Observer, if non-nil, receives one event per finished run. Events
	// are delivered serially (never concurrently) but in completion
	// order, not spec order.
	Observer func(SweepEvent)
}

// SweepEvent is one progress notification: run Index finished (well or
// badly) as the Done-th of Total.
type SweepEvent struct {
	Index   int
	Name    string
	Err     error
	Elapsed time.Duration
	Done    int
	Total   int
}

// RunReport is one run's slot in a SweepResult: either Result or Err is
// set. Err wraps spec-validation failures from RunE, panics recovered
// from the run, and cancellation of runs never started.
type RunReport struct {
	Index   int
	Name    string
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// SweepResult aggregates a sweep. Runs is in spec order — position i
// holds specs[i]'s outcome regardless of which pool worker ran it or
// when it finished — so rendering a SweepResult is deterministic even
// though execution is not.
type SweepResult struct {
	Runs []RunReport
	// Wall is the sweep's elapsed time; Work is the sum of the per-run
	// elapsed times (the serial cost of the same sweep).
	Wall time.Duration
	Work time.Duration
	// Parallelism is the pool width actually used.
	Parallelism int
}

// Results returns the successful results in spec order (failed or
// cancelled slots are skipped).
func (sr *SweepResult) Results() []*Result {
	out := make([]*Result, 0, len(sr.Runs))
	for _, r := range sr.Runs {
		if r.Result != nil {
			out = append(out, r.Result)
		}
	}
	return out
}

// Failed returns the reports whose runs errored, in spec order.
func (sr *SweepResult) Failed() []RunReport {
	var out []RunReport
	for _, r := range sr.Runs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Err returns the first error in spec order, or nil if every run
// succeeded.
func (sr *SweepResult) Err() error {
	for _, r := range sr.Runs {
		if r.Err != nil {
			return fmt.Errorf("run %d (%s): %w", r.Index, r.Name, r.Err)
		}
	}
	return nil
}

// Speedup is the ratio of serial work to wall-clock time — how much the
// pool bought over running the same specs one at a time.
func (sr *SweepResult) Speedup() float64 {
	if sr.Wall <= 0 {
		return 0
	}
	return float64(sr.Work) / float64(sr.Wall)
}

// Sweep executes every spec across a bounded worker pool and returns the
// aggregate. Each run gets its own sim.Engine, so runs shard cleanly and
// results are byte-identical to a serial loop; a panicking run is
// isolated into its slot's Err without sinking the sweep.
//
// Cancelling ctx stops the sweep promptly: in-flight runs finish (the
// simulation core is not preemptible) but unstarted specs are marked
// with ctx's error, which Sweep also returns. A nil ctx means
// context.Background().
func Sweep(ctx context.Context, specs []Spec, opts SweepOptions) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallelism
	if par <= 0 {
		par = DefaultParallelism()
	}
	if par > len(specs) {
		par = len(specs)
	}
	if par < 1 {
		par = 1
	}
	sr := &SweepResult{Runs: make([]RunReport, len(specs)), Parallelism: par}
	for i := range sr.Runs {
		sr.Runs[i] = RunReport{Index: i, Name: specs[i].Name}
	}

	start := time.Now()
	var (
		next int64      = -1 // atomically incremented work-queue cursor
		mu   sync.Mutex      // guards done count + observer delivery
		done int
		wg   sync.WaitGroup
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(specs) {
					return
				}
				rep := &sr.Runs[i]
				if err := ctx.Err(); err != nil {
					rep.Err = err
					continue
				}
				t0 := time.Now()
				rep.Result, rep.Err = runIsolated(specs[i])
				rep.Elapsed = time.Since(t0)
				mu.Lock()
				done++
				if opts.Observer != nil {
					opts.Observer(SweepEvent{
						Index:   i,
						Name:    rep.Name,
						Err:     rep.Err,
						Elapsed: rep.Elapsed,
						Done:    done,
						Total:   len(specs),
					})
				}
				mu.Unlock()
				// A run never blocks, so on a pool as wide as GOMAXPROCS no
				// P reaches the scheduler until sysmon preempts it after
				// 10 ms. Below 4 Ps the GC has no dedicated mark worker, so
				// a mark that starts mid-run stalls that long while the
				// runs keep allocating, and the heap goal that follows
				// doubles. Yielding between runs lets the mark worker in.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	sr.Wall = time.Since(start)
	for _, r := range sr.Runs {
		sr.Work += r.Elapsed
	}
	return sr, ctx.Err()
}

// runIsolated is RunE behind a panic fence: a run that panics (a buggy
// policy, a spec that trips an internal invariant) becomes that run's
// error instead of killing the sweep's worker.
func runIsolated(spec Spec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: run %q panicked: %v\n%s", spec.Name, r, debug.Stack())
		}
	}()
	return RunE(spec)
}

// Grid expands a cross-product of FlowCon parameters, workload seeds and
// cluster sizes into Specs for Sweep — the shape of every sensitivity
// study over the paper's (α, itval) space and beyond.
type Grid struct {
	// Name prefixes every generated spec name.
	Name string
	// Submissions is a fixed workload shared by all cells. Exactly one
	// of Submissions and Workload must be set.
	Submissions []workload.Submission
	// Workload generates a per-seed workload (e.g. workload.RandomN
	// curried over the job count). Requires Seeds.
	Workload func(seed int64) []workload.Submission
	// Seeds are the workload seeds to cross (ignored with a fixed
	// Submissions workload).
	Seeds []int64
	// Alphas and Itvals are the FlowCon sensitivity axes; their cross
	// product yields one FlowCon setting per pair.
	Alphas []float64
	Itvals []float64
	// IncludeNA appends the NA baseline to every (seed, workers) cell.
	IncludeNA bool
	// Workers are the cluster sizes to cross (empty = {1}).
	Workers []int
	// Configure, if non-nil, post-processes each generated Spec (set
	// horizons, contention, placement, ...).
	Configure func(*Spec)
}

// Settings returns the grid's policy settings: the α×itval cross product
// plus NA if requested, in deterministic order.
func (g Grid) Settings() []Setting {
	var out []Setting
	for _, a := range g.Alphas {
		for _, it := range g.Itvals {
			out = append(out, Setting{Alpha: a, Itval: it})
		}
	}
	if g.IncludeNA {
		out = append(out, Setting{NA: true})
	}
	return out
}

// Specs expands the grid in deterministic order: seeds outermost, then
// worker counts, then settings — so slicing the result by setting count
// recovers per-cell groups.
func (g Grid) Specs() ([]Spec, error) {
	if (len(g.Submissions) == 0) == (g.Workload == nil) {
		return nil, fmt.Errorf("experiment: grid %q needs exactly one of Submissions or Workload", g.Name)
	}
	if g.Workload != nil && len(g.Seeds) == 0 {
		return nil, fmt.Errorf("experiment: grid %q has a seeded workload but no seeds", g.Name)
	}
	settings := g.Settings()
	if len(settings) == 0 {
		return nil, fmt.Errorf("experiment: grid %q has no settings (empty alpha/itval axes and no NA)", g.Name)
	}
	seeds := g.Seeds
	if g.Submissions != nil {
		seeds = []int64{0}
	}
	workers := g.Workers
	if len(workers) == 0 {
		workers = []int{1}
	}

	specs := make([]Spec, 0, len(seeds)*len(workers)*len(settings))
	for _, seed := range seeds {
		subs := g.Submissions
		if g.Workload != nil {
			subs = g.Workload(seed)
		}
		for _, nw := range workers {
			for _, s := range settings {
				name := fmt.Sprintf("%s [%s]", g.Name, s.Label())
				if g.Workload != nil {
					name = fmt.Sprintf("%s [seed=%d %s]", g.Name, seed, s.Label())
				}
				if len(g.Workers) > 0 {
					name = fmt.Sprintf("%s [w=%d]", name, nw)
				}
				spec := Spec{
					Name:        name,
					NewPolicy:   s.policy(),
					Submissions: subs,
					Workers:     nw,
				}
				if g.Configure != nil {
					g.Configure(&spec)
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// SettingSpecs expands one workload across policy settings — the exact
// shape of the Figures 3-6/9 sweeps.
func SettingSpecs(title string, subs []workload.Submission, settings []Setting) []Spec {
	specs := make([]Spec, len(settings))
	for i, s := range settings {
		specs[i] = Spec{
			Name:        fmt.Sprintf("%s [%s]", title, s.Label()),
			NewPolicy:   s.policy(),
			Submissions: subs,
		}
	}
	return specs
}

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
		next int64 = -1 // atomically incremented work-queue cursor
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

package experiment

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/workload"
)

// fluidNodeMemory is the testbed node's memory (16 GB), which the
// manager's admission fills without overcommit.
const fluidNodeMemory = 16 << 30

// fluidJob is one job of the closed-form oracle.
type fluidJob struct {
	name                string
	arrive, demand, mem float64
	left                float64 // work still to do
	rate                float64 // work per second under the current shares
	started, finished   float64
	queued, end         bool
}

// fluidNA computes the NA schedule of one capacity-1 node in closed form,
// without the simulator. Between breakpoints (an arrival, the earliest
// completion) every running job gets its equal share of the node, capped
// by its CPU demand — with equal weights the water-fill saturates jobs in
// order of demand, so one sort by demand gives the shares — at efficiency
// 1/(1+h·(n−1)) for n co-located jobs. A job whose memory does not fit
// waits; at each exit the queued jobs are admitted in submission order,
// backfilling past any that still does not fit. Admission never
// overcommits memory, so the thrash term never applies; the oracle
// asserts as much.
func fluidNA(t *testing.T, subs []workload.Submission, h float64) []*fluidJob {
	t.Helper()
	jobs := make([]*fluidJob, len(subs))
	for i, s := range subs {
		jobs[i] = &fluidJob{name: s.Name, arrive: s.At, demand: s.Profile.CPUDemand,
			mem: s.Profile.MemoryBytes, left: s.Profile.TotalWork}
	}
	var running, queue []*fluidJob
	memUsed := 0.0
	start := func(j *fluidJob, now float64) bool {
		if memUsed+j.mem > fluidNodeMemory {
			return false
		}
		memUsed += j.mem
		j.started = now
		running = append(running, j)
		return true
	}
	// Submissions arrive in order (RunE refuses a stream that goes
	// backwards); next is the first not yet arrived.
	now, next := 0.0, 0
	for len(running) > 0 || next < len(jobs) || len(queue) > 0 {
		if memUsed > fluidNodeMemory {
			t.Fatalf("oracle overcommitted memory at %g: %g > %d", now, memUsed, fluidNodeMemory)
		}
		// Shares under the current running set.
		byDemand := slices.Clone(running)
		slices.SortStableFunc(byDemand, func(a, b *fluidJob) int { return cmp.Compare(a.demand, b.demand) })
		eff := 1.0
		if n := len(running); n > 1 {
			eff = 1 / (1 + h*float64(n-1))
		}
		capacity := 1.0
		for k, j := range byDemand {
			share := math.Min(j.demand, capacity/float64(len(byDemand)-k))
			capacity -= share
			j.rate = share * eff
		}
		// The next breakpoint.
		tNext := math.Inf(1)
		for _, j := range running {
			tNext = math.Min(tNext, now+j.left/j.rate)
		}
		if next < len(jobs) {
			tNext = math.Min(tNext, jobs[next].arrive)
		}
		if math.IsInf(tNext, 1) {
			t.Fatalf("oracle stalled at %g with %d job(s) queued", now, len(queue))
		}
		// Advance to it; every job whose completion lands there exits.
		exited := false
		kept := running[:0]
		for _, j := range running {
			if now+j.left/j.rate <= tNext {
				j.left, j.end, j.finished = 0, true, tNext
				memUsed -= j.mem
				exited = true
				continue
			}
			j.left -= j.rate * (tNext - now)
			kept = append(kept, j)
		}
		running, now = kept, tNext
		for next < len(jobs) && jobs[next].arrive <= now {
			if j := jobs[next]; !start(j, now) {
				j.queued = true
				queue = append(queue, j)
			}
			next++
		}
		if exited {
			waiting := queue[:0]
			for _, j := range queue {
				if !start(j, now) {
					waiting = append(waiting, j)
				}
			}
			queue = waiting
		}
	}
	return jobs
}

// TestFluidOracleNA checks the simulator's NA runs against the
// closed-form fluid schedule: every job's start and finish, and the
// makespan, agree to 1e-9 relative on the paper's four schedules.
func TestFluidOracleNA(t *testing.T) {
	for _, c := range []struct {
		name string
		subs []workload.Submission
	}{
		{"fixed", workload.FixedSchedule()},
		{"random-five", workload.RandomFive(SeedRandomFive)},
		{"ten-job", workload.RandomN(10, SeedRandomTen)},
		{"fifteen-job", workload.RandomN(15, SeedRandom15)},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunE(Spec{Name: c.name, NewPolicy: NAPolicy(20), Submissions: c.subs})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatal("simulated run did not complete")
			}
			oracle := fluidNA(t, c.subs, DefaultContentionOverhead)
			want := map[string]*fluidJob{}
			makespan, queued := 0.0, 0
			for _, j := range oracle {
				want[j.name] = j
				makespan = math.Max(makespan, j.finished)
				if j.queued {
					queued++
				}
			}
			worst := 0.0
			close := func(got, want float64) bool {
				rel := math.Abs(got-want) / math.Max(1, math.Abs(want))
				worst = math.Max(worst, rel)
				return rel <= 1e-9
			}
			if len(res.Jobs) != len(oracle) {
				t.Fatalf("simulator ran %d jobs, oracle %d", len(res.Jobs), len(oracle))
			}
			for _, r := range res.Jobs {
				j := want[r.Name]
				if j == nil || !j.end {
					t.Fatalf("job %q missing from the oracle", r.Name)
				}
				if !close(r.StartedAt, j.started) || !close(r.FinishedAt, j.finished) {
					t.Errorf("%s: simulator ran [%.12g, %.12g], oracle [%.12g, %.12g]",
						r.Name, r.StartedAt, r.FinishedAt, j.started, j.finished)
				}
			}
			if !close(res.Makespan, makespan) {
				t.Errorf("makespan: simulator %.12g, oracle %.12g", res.Makespan, makespan)
			}
			t.Logf("%d jobs, %d waited for memory, makespan %.3f, worst relative error %.1e",
				len(oracle), queued, makespan, worst)
		})
	}
}

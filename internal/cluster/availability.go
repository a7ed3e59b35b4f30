package cluster

import (
	"math"

	"repro/internal/stats"
)

// Availability is the manager's fault/recovery ledger: worker downtime,
// restart provenance (checkpoint vs scratch), wasted training work, and
// job-level MTTR. It is a pure observer maintained from the manager's
// lifecycle hooks — reading it never changes scheduling — and every
// counter is driven by sim-clock events, so the ledger is deterministic
// whenever the run is.
//
// MTTR here is job-level: the virtual time between a job losing its
// container (worker crash or injected kill) and its next successful
// placement. Worker downtime is tracked separately as capacity-weighted
// down-seconds.
type Availability struct {
	// Crashes counts worker failures (Worker.Fail transitions), Repairs
	// the matching recoveries.
	Crashes int
	Repairs int
	// Kills counts injected single-container failures (FailContainer).
	Kills int
	// Degradations counts degraded-node episodes (a worker's effective
	// capacity dropped below nominal). internal/faults maintains it — the
	// capacity change happens at the backend, beneath the manager's view.
	Degradations int
	// Checkpoints counts periodic snapshots taken by the self-healing
	// layer (not migration freezes).
	Checkpoints int
	// RestartsFromCheckpoint / RestartsFromScratch classify every lost
	// placement by what the job resumed with.
	RestartsFromCheckpoint int
	RestartsFromScratch    int
	// WastedWorkSec is the total CPU work (cpu-seconds) lost to crashes
	// and kills: delivered work minus the snapshot each restart resumed
	// from.
	WastedWorkSec float64
	// Abandoned counts jobs given up after exhausting their retry budget.
	Abandoned int
	// Shed counts fresh admissions deferred into the queue by the
	// surviving-capacity watermark (the 429 path).
	Shed int
	// Cordons counts workers cordoned by flap detection.
	Cordons int
	// WorkerDownSec is the sum over workers of capacity-weighted downtime:
	// a crashed 4-core worker accrues 4 capacity-seconds per second until
	// repaired (or until the run ends — Finalize closes open intervals).
	WorkerDownSec float64

	// workers are walked in declaration order by Finalize; each carries
	// its own open downtime interval. Nil once finalized.
	workers []*Worker
	// totalCapacity is the cluster's aggregate capacity, the denominator
	// of AvailabilityFrac.
	totalCapacity float64
	mttr          *stats.QuantileSketch
	end           float64
}

// downInterval is a worker's downtime interval, open from a crash until
// the repair (or the run's end), weighted by its capacity at the crash.
type downInterval struct {
	open            bool
	capacity, since float64
}

func newAvailability(workers []*Worker) *Availability {
	a := &Availability{
		workers: workers,
		mttr:    stats.NewQuantileSketch(stats.DefaultSketchAccuracy),
	}
	for _, w := range workers {
		a.totalCapacity += w.Capacity()
	}
	return a
}

// workerDown opens a downtime interval for a crashed worker.
func (a *Availability) workerDown(w *Worker, now float64) {
	a.Crashes++
	w.down = downInterval{open: true, capacity: w.Capacity(), since: now}
}

// workerUp closes the worker's downtime interval.
func (a *Availability) workerUp(w *Worker, now float64) {
	if w.down.open {
		a.Repairs++
		a.closeDown(w, now)
	}
}

// closeDown adds w's open downtime interval, if any, up to now.
func (a *Availability) closeDown(w *Worker, now float64) {
	if w.down.open {
		a.WorkerDownSec += w.down.capacity * (now - w.down.since)
		w.down.open = false
	}
}

// jobLost records a container loss: restart provenance, wasted work, and
// the MTTR clock start. workAtLoss is the settled delivered work the
// dying container held; the job's resumeWork what the restart will carry.
func (a *Availability) jobLost(j *job, now, workAtLoss float64) {
	if j.resumeWork > 0 {
		a.RestartsFromCheckpoint++
	} else {
		a.RestartsFromScratch++
	}
	if lost := workAtLoss - j.resumeWork; lost > 0 {
		a.WastedWorkSec += lost
	}
	j.lostAt, j.recovering = now, true
}

// jobPlaced closes the job's MTTR interval if one is open. Called from
// the launch and restore placement paths.
func (a *Availability) jobPlaced(j *job, now float64) {
	if !j.recovering {
		return
	}
	a.mttr.Add(now - j.lostAt)
	j.recovering = false
}

// Finalize closes every open downtime interval at the run's end time,
// walking workers in declaration order so the sum is order-stable, then
// drops them so a retained report does not pin the simulated cluster.
// Call once when the run stops; the report accessors below assume it ran.
func (a *Availability) Finalize(end float64) {
	a.end = end
	for _, w := range a.workers {
		a.closeDown(w, end)
	}
	a.workers = nil
}

// MTTRQuantile returns the q-th quantile of job-level MTTR in virtual
// seconds, or NaN when no job ever lost a container (renders as "-").
func (a *Availability) MTTRQuantile(q float64) float64 {
	if a.mttr.Count() == 0 {
		return math.NaN()
	}
	return a.mttr.Quantile(q)
}

// MTTRCount returns how many recovery intervals the MTTR sketch holds.
func (a *Availability) MTTRCount() int64 { return a.mttr.Count() }

// Frac returns delivered capacity as a fraction of ideal capacity over
// the finalized horizon: 1 − downSec/(totalCapacity·end). A run with no
// faults reports 1.
func (a *Availability) Frac() float64 {
	if a.end <= 0 || a.totalCapacity <= 0 {
		return 1
	}
	return 1 - a.WorkerDownSec/(a.totalCapacity*a.end)
}

// Faulted reports whether the ledger saw any fault or recovery activity —
// reports use it to keep availability tables out of healthy-run output.
func (a *Availability) Faulted() bool {
	return a.Crashes > 0 || a.Kills > 0 || a.Degradations > 0 ||
		a.Checkpoints > 0 || a.Abandoned > 0 || a.Shed > 0 || a.Cordons > 0
}

package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The isolated drives call one layer's public function in a tight loop at
// the workload's own size — n containers per node, W workers — and report
// the cost of one call. They say what a layer costs per operation; the
// sampled CPU shares and seam spans say how often the workload asks.

// perCall times fn over three batches of iters calls and returns the
// median batch's nanoseconds per call.
func perCall(iters int, fn func(i int)) float64 {
	var batches []float64
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		batches = append(batches, float64(time.Since(t0))/float64(iters))
	}
	return median(batches)
}

// endlessJob is a catalog job whose budget no drive can exhaust, so a
// pool's size stays pinned while it is driven.
func endlessJob(i int) *dlmodel.Job {
	catalog := dlmodel.Catalog()
	p := catalog[i%len(catalog)]
	p.TotalWork = 1e15
	return dlmodel.NewJob(fmt.Sprintf("drive-%d", i), p)
}

// drivePool is a simulated worker running n endless jobs.
type drivePool struct {
	engine *sim.Engine
	worker *cluster.Worker
	daemon *simdocker.Daemon
	ids    []string
	names  []string
}

func newDrivePool(n int) (*drivePool, error) {
	p := &drivePool{engine: sim.NewEngine()}
	p.worker, p.daemon = cluster.NewSimWorker("drive", p.engine, 1.0)
	p.daemon.SetContentionOverhead(0)
	p.daemon.SetMemoryCapacity(0)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Job-%d", i+1)
		c, err := p.worker.LaunchJob(name, endlessJob(i))
		if err != nil {
			return nil, fmt.Errorf("drive pool launch %d: %w", i, err)
		}
		p.ids = append(p.ids, c.ID)
		p.names = append(p.names, name)
	}
	return p, nil
}

// advance runs the pool's engine over k periods and returns the wall
// time that took.
func (p *drivePool) advance(k int, period float64) time.Duration {
	t0 := time.Now()
	p.engine.Run(p.engine.Now() + sim.Time(float64(k)*period))
	return time.Since(t0)
}

// simDrives fills the isolated-drive metrics of a simulator workload.
func simDrives(m map[string]float64, w benchWorkload, n int, seed int64, quick bool) error {
	n = max(n, 1)
	scale := 1
	if quick {
		scale = 20
	}

	// sim: one At + Run round trip with W events already queued.
	eng := sim.NewEngine()
	for i := 0; i < w.workers; i++ {
		eng.At(1e12, sim.PriorityState, "drive.parked", func() {})
	}
	noop := func() {}
	m["sim.event_ns"] = perCall(200000/scale, func(int) {
		eng.At(eng.Now()+1e-6, sim.PriorityMetric, "drive.event", noop)
		eng.Run(eng.Now() + 1e-6)
	})

	// simdocker: docker update (settle + reallocate + reschedule) and a
	// bare settle, on a node running n containers.
	pool, err := newDrivePool(n)
	if err != nil {
		return err
	}
	limits := [2]float64{0.5, 0.6}
	var updateErr error
	m["simdocker.update_ns"] = perCall(max(400000/n, 200)/scale, func(i int) {
		if err := pool.daemon.Update(pool.ids[i%n], limits[i%2]); err != nil {
			updateErr = err
		}
	})
	if updateErr != nil {
		return fmt.Errorf("drive Daemon.Update: %w", updateErr)
	}
	m["simdocker.sync_ns"] = perCall(max(2000000/n, 200)/scale, func(int) {
		pool.engine.At(pool.engine.Now()+0.001, sim.PriorityMetric, "drive.sync", pool.daemon.Sync)
		pool.engine.Run(pool.engine.Now() + 0.001)
	})

	// resource: one water-fill over n claims with mixed limits.
	claims := make([]resource.Claim, n)
	for i := range claims {
		claims[i] = resource.Claim{ID: pool.ids[i], Limit: 0.1 + 0.9*float64(i%10)/10, Demand: 1}
	}
	var alloc resource.Allocator
	m["resource.allocate_ns"] = perCall(max(2000000/n, 200)/scale, func(int) {
		alloc.Allocate(1.0, claims)
	})

	// flowcon: one Algorithm 1 pass over n snapshots spread over the lists.
	snaps := make([]flowcon.JobSnapshot, n)
	for i := range snaps {
		snaps[i] = flowcon.JobSnapshot{ID: pool.ids[i], List: flowcon.List(i % 3), G: 0.01 * float64(i%12), GDefined: i%7 != 0}
	}
	cfg := flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}
	m["flowcon.step_ns"] = perCall(max(2000000/n, 200)/scale, func(int) {
		flowcon.Step(snaps, cfg)
	})

	// cluster: the default placement scan over W idle workers.
	workers := make([]*cluster.Worker, w.workers)
	for i := range workers {
		workers[i], _ = cluster.NewSimWorker(fmt.Sprintf("worker-%d", i), eng, 1.0)
	}
	profile := dlmodel.MNISTPyTorch()
	m["cluster.least_loaded_ns"] = perCall(max(4000000/w.workers, 200)/scale, func(int) {
		cluster.LeastLoaded(workers, profile)
	})

	// stats / metrics: one sketch insert and one summary observation, on
	// usage-like values in (0, 1].
	sketch := stats.NewQuantileSketch(metrics.SketchAccuracy)
	m["stats.sketch_add_ns"] = perCall(1000000/scale, func(i int) {
		sketch.Add(float64(i%97+1) / 97)
	})
	summary := metrics.NewSeriesSummary()
	at := 0.0 // Observe wants non-decreasing timestamps across batches
	m["metrics.observe_ns"] = perCall(1000000/scale, func(i int) {
		at++
		summary.Observe(at, float64(i%97+1)/97)
	})

	// metrics: the periodic sampler on an n-container node, against a
	// node that only settles at the same period; the difference per
	// container-sample is what observing costs on top of settling.
	const period = 2.0
	k := max(200000/n, 50) / scale
	base, err := newDrivePool(n)
	if err != nil {
		return err
	}
	var tick func()
	tick = func() {
		base.daemon.Sync()
		base.engine.After(period, sim.PriorityMetric, "drive.settle", tick)
	}
	base.engine.After(period, sim.PriorityMetric, "drive.settle", tick)
	observed, err := newDrivePool(n)
	if err != nil {
		return err
	}
	collector := metrics.NewCollector(observed.engine, period)
	for i, id := range observed.ids {
		collector.TrackJob(observed.names[i], "drive", "drive", id, 0)
	}
	collector.AttachWorker("drive", observed.daemon)
	var deltas []float64
	for b := 0; b < 3; b++ {
		without := base.advance(k, period)
		with := observed.advance(k, period)
		deltas = append(deltas, float64(with-without)/float64(k*n))
	}
	m["metrics.sample_ns"] = median(deltas)

	// workload: pulling the workload's own arrival stream.
	if stream := arrivalStream(w.name, seed, quick); stream != nil {
		pulls := 0
		t0 := time.Now()
		for pulls < 20000 {
			if _, ok := stream.Next(); !ok {
				break
			}
			pulls++
		}
		if err := stream.Err(); err != nil {
			return fmt.Errorf("drive arrival stream: %w", err)
		}
		if pulls > 0 {
			m["workload.next_ns"] = float64(time.Since(t0)) / float64(pulls)
		}
	}
	return nil
}

// arrivalStream rebuilds the stream a simulator workload admits jobs
// from (nil for paper-figures, whose schedules are materialized).
func arrivalStream(name string, seed int64, quick bool) workload.ArrivalStream {
	if name == "dense-node" {
		return denseNodeSpec(seed, quick).Arrivals
	}
	if sc, ok := experiment.ScenarioByName(name); ok && sc.StreamWorkload != nil {
		return sc.StreamWorkload(seed)
	}
	return nil
}

// liveDrives times livedock.Node.Launch on an empty node and at the
// occupancy a live repetition ends with.
func liveDrives(m map[string]float64, quick bool) error {
	const window = 100
	target := liveSubmitters * liveJobs
	if quick {
		target = 200
	}
	node := livedock.NewNode(1.0)
	profile := dlmodel.MNISTPyTorch()
	us := make([]float64, 0, target+window)
	for i := 0; i < target+window; i++ {
		name := fmt.Sprintf("drive-%d", i)
		job := dlmodel.NewJob(name, profile)
		t0 := time.Now()
		_, err := node.Launch(runtime.LaunchSpec{Name: name, Model: profile.Key(), Workload: job})
		us = append(us, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("drive Node.Launch %d: %w", i, err)
		}
	}
	m["livedock.launch_us_at_0"] = median(us[:window])
	m["livedock.launch_us_at_4000"] = median(us[target:])
	return nil
}

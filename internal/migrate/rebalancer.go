// Package migrate closes the loop the paper leaves open: FlowCon keeps
// all growth-efficiency machinery worker-local, so the manager places a
// job once and never reconsiders — a node that fills up with low-GE
// stragglers stays congested while a neighbor idles. The Rebalancer is a
// periodic cluster-level policy that reuses the same growth-efficiency
// signal (Eq. 2) across nodes: it snapshots per-worker load and
// per-container GE, detects imbalance, and live-migrates the least
// efficient movable container from the hottest node to the coldest one
// through the manager's checkpoint/restore path.
//
// A pressure gap triggers a move: the hottest node runs at least minGap
// (2) more containers than the coldest node that could host one of them.
// Spreading the pool directly attacks the co-location contention the
// paper measures ("reducing the overlap between jobs").
//
// Victim selection is GE-aware: among the source's movable containers
// (running, not finishing, with at least one measured GE interval) the
// one with the lowest recent growth efficiency moves — the job that loses
// least from the freeze/transfer/thaw stall, by the paper's own metric.
package migrate

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config tunes the Rebalancer. The zero value gets the documented
// defaults at Attach time.
type Config struct {
	// Interval is the scan period in seconds (default 20). Like the
	// paper's executor interval, it bounds the policy's reaction time.
	Interval float64
	// MaxMovesPerScan caps migrations per scan (default 1); the next scan
	// re-evaluates against the post-move state instead of committing to a
	// stale plan.
	MaxMovesPerScan int
	// Cost is the freeze/transfer/thaw model charged per migration. The
	// zero value is replaced by cluster.DefaultMigrationCost() — unlike
	// cluster.MigrationSpec.Cost, a literally free move is not
	// expressible here (use a tiny FreezeSec if an experiment needs one).
	Cost cluster.MigrationCost
}

const (
	// minGap is the minimum running-container gap between the hottest and
	// coldest node before a pressure-gap move triggers; a gap of 1 would
	// oscillate.
	minGap = 2
	// geWindow is how many recent GE measurements are kept per container
	// and attached to its checkpoint on migration.
	geWindow = 3
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 20
	}
	if c.MaxMovesPerScan == 0 {
		c.MaxMovesPerScan = 1
	}
	if c.Cost == (cluster.MigrationCost{}) {
		c.Cost = cluster.DefaultMigrationCost()
	}
	return c
}

// Validate rejects out-of-domain knobs with a named field.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("migrate: negative interval %g", c.Interval)
	}
	if c.MaxMovesPerScan < 0 {
		return fmt.Errorf("migrate: negative move cap %d", c.MaxMovesPerScan)
	}
	return c.Cost.Validate()
}

// Plan is one decided migration: which job moves where, and why.
type Plan struct {
	// Job is the job label (= container name) to move.
	Job string
	// Src and Dst are the worker names.
	Src, Dst string
	// G is the victim's most recent growth efficiency.
	G float64
	// GEHistory is the victim's recent GE trail (oldest first).
	GEHistory []float64
}

// Rebalancer is the cluster-level policy: create with New, wire with
// AttachCluster (or set experiment.Spec.Rebalance, which does both per
// run).
type Rebalancer struct {
	cfg     Config
	engine  *sim.Engine
	manager *cluster.Manager

	// monitors derive per-interval growth efficiency per worker, exactly
	// like the worker-local container monitor but at cluster scope.
	monitors []*flowcon.Monitor
	// ge holds each container's recent GE measurements (oldest first),
	// keyed by container id. A migrated container gets a fresh id and so
	// starts over — built-in hysteresis against ping-ponging.
	ge map[string][]float64
	// res holds each container's most recent per-kind resource-usage rates
	// (Eq. 2's R vector), keyed by container id. It prices both what a
	// victim would add to a destination and how loaded each node already
	// is, so destination fitness can weigh every contended dimension
	// instead of container count alone.
	res map[string][resource.NumKinds]float64

	// scans, plans and executed count periodic scans, decided migrations
	// and the ones the manager accepted (the package's tests read them).
	scans    int
	plans    int
	executed int
}

// New creates a rebalancer; the zero-value fields of cfg get defaults.
// Invalid configurations panic — the rebalancer is wired at experiment
// setup, where a bad knob is a programming error.
func New(cfg Config) *Rebalancer {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Rebalancer{
		cfg: cfg.withDefaults(),
		ge:  make(map[string][]float64),
		res: make(map[string][resource.NumKinds]float64),
	}
}

// AttachCluster binds the rebalancer to the manager and starts the
// periodic scan. Call it once, before the simulation starts.
func (r *Rebalancer) AttachCluster(engine *sim.Engine, m *cluster.Manager) {
	if r.manager != nil {
		panic("migrate: rebalancer attached twice")
	}
	r.engine = engine
	r.manager = m
	r.monitors = make([]*flowcon.Monitor, len(m.Workers()))
	for i := range r.monitors {
		r.monitors[i] = flowcon.NewMonitor()
	}
	var tick func()
	tick = func() {
		r.scans++
		for _, p := range r.Scan() {
			r.plans++
			if r.execute(p) {
				r.executed++
				// Record the decision that caused the move next to the
				// manager's freeze/thaw spans (the note carries the
				// heuristic and the GE evidence). Guarded: the note is
				// formatted only when a tracer is listening.
				if tr := m.Tracer(); tr != nil {
					tr.Record(float64(engine.Now()), telemetry.PhaseMigrate, p.Job, p.Src,
						fmt.Sprintf("rebalance reason=pressure-gap dst=%s ge=%.4f", p.Dst, p.G))
				}
			}
		}
		engine.After(r.cfg.Interval, sim.PriorityExecutor, "migrate.scan", tick)
	}
	engine.After(r.cfg.Interval, sim.PriorityExecutor, "migrate.scan", tick)
}

// workerState is one worker's snapshot during a scan.
type workerState struct {
	worker *cluster.Worker
	// running is the container count (the pressure signal).
	running int
	// load is the summed per-kind resource-usage rate of the worker's
	// measured containers (Eq. 2's R, aggregated per node): CPU cores,
	// blkio/netio bytes per second, resident memory bytes.
	load [resource.NumKinds]float64
	// memUsed is the node's reserved resident memory in bytes.
	memUsed float64
	// movable are candidate victims sorted by ascending recent GE.
	movable []victim
}

type victim struct {
	job string
	g   float64
	// vec is the victim's own recent per-kind usage rate — the pressure a
	// move adds to its destination.
	vec [resource.NumKinds]float64
}

// Scan samples every worker, updates the GE histories, and returns the
// migrations the heuristic decides against the current state (capped by
// MaxMovesPerScan). It does not execute them; AttachCluster's tick does.
// Everything iterates in worker/creation order, so scans are
// deterministic.
func (r *Rebalancer) Scan() []Plan {
	if r.manager == nil {
		panic("migrate: Scan before AttachCluster")
	}
	now := float64(r.engine.Now())
	workers := r.manager.Workers()
	states := make([]workerState, len(workers))
	seen := make(map[string]bool)
	for i, w := range workers {
		ws := &states[i]
		ws.worker = w
		if w.Failed() {
			continue
		}
		ws.running = w.RunningCount()
		ws.memUsed = w.MemoryUsed()
		stats := w.RunningStats()
		measurements := r.monitors[i].Collect(now, stats)
		unmeasured := make(map[string]bool)
		for _, mm := range measurements {
			seen[mm.ID] = true
			if !mm.Defined {
				unmeasured[mm.ID] = true
				continue
			}
			hist := append(r.ge[mm.ID], mm.G)
			if len(hist) > geWindow {
				hist = hist[len(hist)-geWindow:]
			}
			r.ge[mm.ID] = hist
			r.res[mm.ID] = mm.RKind
			for k := range mm.RKind {
				ws.load[k] += mm.RKind[k]
			}
		}
		// Candidate victims: running containers with at least one measured
		// interval. A container measured this scan keeps its job name
		// reachable through the runtime's pool (names are job labels).
		for _, c := range w.PS(false) {
			// Containers without a measured interval still consume CPU
			// right now: account their instantaneous allocation so a node
			// crowded with fresh arrivals does not masquerade as idle to
			// the destination-fitness score.
			if unmeasured[c.ID] {
				ws.load[resource.CPU] += c.CPUAlloc
			}
			hist, ok := r.ge[c.ID]
			if !ok || len(hist) == 0 || c.Done {
				continue
			}
			ws.movable = append(ws.movable, victim{
				job: c.Name, g: hist[len(hist)-1], vec: r.res[c.ID],
			})
		}
		sortVictims(ws.movable)
	}
	// Forget containers that disappeared since the last scan (finished,
	// failed, or mid-migration): their ids never come back.
	for id := range r.ge {
		if !seen[id] {
			delete(r.ge, id)
			delete(r.res, id)
		}
	}
	return r.decide(states)
}

// decide applies the pressure-gap heuristic to a snapshot.
func (r *Rebalancer) decide(states []workerState) []Plan {
	var plans []Plan
	for len(plans) < r.cfg.MaxMovesPerScan {
		src := r.pickSource(states)
		if src == nil {
			break
		}
		plan, ok := r.planMove(states, src)
		if !ok {
			break
		}
		plans = append(plans, plan)
		// Account the move so a multi-move scan converges instead of
		// re-picking the same pair: the container count, the victim's
		// resource vector, and its resident memory all travel with it.
		v := src.movable[0]
		profile, _ := r.manager.ProfileOf(v.job)
		src.running--
		src.movable = src.movable[1:]
		for k := range v.vec {
			src.load[k] -= v.vec[k]
		}
		src.memUsed -= profile.MemoryBytes
		for i := range states {
			if states[i].worker.Name() == plan.Dst {
				states[i].running++
				for k := range v.vec {
					states[i].load[k] += v.vec[k]
				}
				states[i].memUsed += profile.MemoryBytes
			}
		}
	}
	return plans
}

// pickSource returns the worker to unload, or nil if the cluster is
// balanced.
func (r *Rebalancer) pickSource(states []workerState) *workerState {
	var hottest, coldest *workerState
	for i := range states {
		ws := &states[i]
		if ws.worker.Failed() {
			continue
		}
		if len(ws.movable) > 0 && ws.running >= 2 &&
			(hottest == nil || ws.running > hottest.running) {
			hottest = ws
		}
		if !ws.worker.Cordoned() && (coldest == nil || ws.running < coldest.running) {
			coldest = ws
		}
	}
	if hottest == nil || coldest == nil {
		return nil
	}
	if hottest.running-coldest.running >= minGap {
		return hottest
	}
	return nil
}

// Destination-fitness weights: CPU saturation and memory pressure are the
// dimensions the paper's testbed shows actually throttle training
// (contention overhead and thrashing); the I/O rates are secondary
// congestion signals. Relative magnitudes, not absolutes, matter — every
// term is normalized before weighting.
const (
	fitWeightCPU    = 1.0
	fitWeightMemory = 1.0
	fitWeightBlkIO  = 0.5
	fitWeightNetIO  = 0.5
)

// fitness scores how contended a destination would be after receiving the
// victim, across the full Eq. 2 resource vector — lower is better. CPU is
// the post-move usage rate against node capacity, memory the post-move
// resident pressure against node memory, and each I/O dimension the
// post-move rate normalized by the cluster's hottest node (ioNorm), so a
// destination that is quiet on every axis scores near zero no matter the
// units involved.
func fitness(ws *workerState, v victim, p dlmodel.Profile, ioNorm *[resource.NumKinds]float64) float64 {
	score := fitWeightCPU * (ws.load[resource.CPU] + v.vec[resource.CPU]) / ws.worker.Capacity()
	if memCap := ws.worker.MemoryCapacity(); memCap > 0 {
		score += fitWeightMemory * (ws.memUsed + p.MemoryBytes) / memCap
	}
	if n := ioNorm[resource.BlkIO]; n > 0 {
		score += fitWeightBlkIO * (ws.load[resource.BlkIO] + v.vec[resource.BlkIO]) / n
	}
	if n := ioNorm[resource.NetIO]; n > 0 {
		score += fitWeightNetIO * (ws.load[resource.NetIO] + v.vec[resource.NetIO]) / n
	}
	return score
}

// planMove picks the source's lowest-GE victim and the destination with
// the best multi-resource fitness able to host it. Count-based best-fit
// ("coldest node") traded CPU contention for memory thrashing whenever the
// emptiest node was already saturated on another axis; scoring the full
// resource vector closes that gap while the strict-imbalance guard still
// guarantees scans converge instead of ping-ponging.
func (r *Rebalancer) planMove(states []workerState, src *workerState) (Plan, bool) {
	v := src.movable[0]
	c, err := src.worker.Lookup(v.job)
	if err != nil {
		return Plan{}, false
	}
	profile, ok := r.manager.ProfileOf(v.job)
	if !ok {
		return Plan{}, false
	}
	// Normalize the unit-less I/O dimensions by the cluster's hottest
	// node so their weights are comparable to the capacity-relative CPU
	// and memory terms.
	var ioNorm [resource.NumKinds]float64
	for i := range states {
		for k := range ioNorm {
			if l := states[i].load[k] + v.vec[k]; l > ioNorm[k] {
				ioNorm[k] = l
			}
		}
	}
	var dst *workerState
	var dstScore float64
	for i := range states {
		ws := &states[i]
		if ws == src || !ws.worker.CanHost(profile) {
			continue
		}
		if ws.running >= src.running-1 {
			// The move must strictly reduce the imbalance, or the next
			// scan would just move it back.
			continue
		}
		score := fitness(ws, v, profile, &ioNorm)
		if dst == nil || score < dstScore ||
			(score == dstScore && ws.running < dst.running) {
			dst = ws
			dstScore = score
		}
	}
	if dst == nil {
		return Plan{}, false
	}
	return Plan{
		Job:       v.job,
		Src:       src.worker.Name(),
		Dst:       dst.worker.Name(),
		G:         v.g,
		GEHistory: append([]float64(nil), r.ge[c.ID]...),
	}, true
}

// execute hands one plan to the manager.
func (r *Rebalancer) execute(p Plan) bool {
	var dst *cluster.Worker
	for _, w := range r.manager.Workers() {
		if w.Name() == p.Dst {
			dst = w
			break
		}
	}
	if dst == nil {
		return false
	}
	err := r.manager.Migrate(cluster.MigrationSpec{
		Job:       p.Job,
		Dst:       dst,
		Cost:      r.cfg.Cost,
		GEHistory: p.GEHistory,
	})
	return err == nil
}

// sortVictims orders candidates by ascending recent GE, ties by job name.
func sortVictims(vs []victim) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].g != vs[j].g {
			return vs[i].g < vs[j].g
		}
		return vs[i].job < vs[j].job
	})
}

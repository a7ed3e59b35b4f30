package metrics

import (
	"sort"
	"unsafe"

	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// The dense tier's CPU and evaluation series are piecewise closed forms:
// between two changes to a container's read inputs its CPU seconds and
// work grow linearly (see simdocker.Daemon), so a sample at any tick is
// a function of the container's last change before it. The collector
// therefore logs the changes (a worker's rate log, written only where a
// rate changes) and the tick instants, and replays the sampling rules
// over them when a series is read.

// removedState marks a rate-log record of a removal: no container state
// is zero (runtime.State numbers its states from 1).
const removedState runtime.State = 0

// foldRec is one rate-log record: container c's read inputs after a
// change, or its removal from the pool.
type foldRec struct {
	c *simdocker.Container
	f simdocker.Fold
}

// workerLog is one attached worker's rate log. It is the worker daemon's
// simdocker.Observer.
type workerLog struct {
	daemon *simdocker.Daemon
	// at and stamp are the attach instant and stamp: the worker's first
	// sample window opens at at, and ticks from stamp on sample it.
	at    float64
	stamp uint64
	recs  []foldRec
	// indexed counts the records Collector.conts already groups.
	indexed int
}

// Folded implements simdocker.Observer.
func (w *workerLog) Folded(c *simdocker.Container, f simdocker.Fold) {
	w.recs = append(w.recs, foldRec{c: c, f: f})
}

// Removed implements simdocker.Observer.
func (w *workerLog) Removed(c *simdocker.Container, stamp uint64) {
	w.recs = append(w.recs, foldRec{c: c, f: simdocker.Fold{Stamp: stamp, State: removedState}})
}

// tickMark is one metrics.sample event that ran: its instant and its
// engine stamp (the event's Executed() index). A rate-log record or a
// binding with a stamp ≤ the tick's was made before the tick.
type tickMark struct {
	at    float64
	stamp uint64
}

// contLog is one container's records within its worker's rate log.
type contLog struct {
	w    *workerLog
	recs []int32 // indexes into w.recs, in order
}

// index groups every rate-log record not yet grouped by its container's
// id. Container ids are unique across the attached daemons, as the
// collector's byCID index already requires. With no tick since the last
// call there is nothing to do: every record a sample depends on was made
// before its tick ran, so it was logged by then.
func (c *Collector) index() {
	if c.conts == nil {
		c.conts = make(map[string]*contLog)
	} else if c.indexedTicks == len(c.ticks) {
		return
	}
	c.indexedTicks = len(c.ticks)
	for _, w := range c.workers {
		for i := w.indexed; i < len(w.recs); i++ {
			id := w.recs[i].c.ID()
			cl := c.conts[id]
			if cl == nil {
				cl = &contLog{w: w}
				c.conts[id] = cl
			}
			cl.recs = append(cl.recs, int32(i))
		}
		w.indexed = len(w.recs)
	}
}

// derive materialises job j's series k (kindCPU or kindEval) from the
// rate log, unless it is already derived over every tick so far: a tick
// is the only thing that adds a sample.
func (c *Collector) derive(j *job, k seriesKind) {
	d := j.dense
	if d.derived[k] == len(c.ticks)+1 {
		return
	}
	d.series[k] = Series{}
	if pts := c.derivePoints(j, k); len(pts) > 0 {
		d.series[k].chunks = [][]Point{pts}
	}
	d.derived[k] = len(c.ticks) + 1
}

// derivePoints returns job j's series k (kindCPU or kindEval), derived
// from the rate log into a fresh slice.
func (c *Collector) derivePoints(j *job, k seriesKind) []Point {
	pts := make([]Point, 0, c.sampleBound(j))
	emit := func(t, v float64) { pts = append(pts, Point{T: t, V: v}) }
	if k == kindCPU {
		c.replay(j, emit, nil)
	} else {
		c.replay(j, nil, emit)
	}
	return pts
}

// sampleBound bounds how many samples of one kind job j has: at most
// one per tick from its start on, and for a finished job none later than
// PostExitSamples ticks after its finish.
func (c *Collector) sampleBound(j *job) int {
	lo := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].at >= j.StartedAt })
	n := len(c.ticks) - lo
	if j.Finished {
		hi := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].at > j.FinishedAt })
		n = min(n, hi-lo+PostExitSamples)
	}
	return max(n, 0)
}

// replay calls cpu and eval (either may be nil; eval values are computed
// only when it is not) with job j's samples in time order: at each tick,
// what the dense sampler's read of the job's container would have
// returned. The sampler's rules, per container slot (one per container
// its worker's daemon ever held, from its start or the attach on):
//
//   - a container removed from the pool by the tick (checkpoint freeze,
//     kill, repair) is sampled no more; its last partial window goes
//     unsampled;
//   - a container not bound to a job at the tick is skipped, and sampled
//     no more if it has exited: its differencing state stays untouched,
//     so its first bound sample differences against zero;
//   - a bound container yields a CPU sample (cpu − lastCPU)/dt when the
//     worker's window dt since its previous tick (or its attach) is
//     positive, where cpu is the daemon's read of its CPU seconds, and
//     the job's evaluation value unless the job has finished;
//   - once exited, a container yields PostExitSamples more samples.
//
// A job rebound to another container (a restart, migration or
// checkpoint restore) is sampled from that one from the binding's tick
// on. Each container is assumed bound to at most one job.
func (c *Collector) replay(j *job, cpu, eval func(t, v float64)) {
	c.index()
	d := j.dense
	for bi, b := range d.binds {
		end := ^uint64(0)
		if bi+1 < len(d.binds) {
			end = d.binds[bi+1].stamp
		}
		cl := c.conts[b.cid]
		if cl == nil {
			continue // not on an attached worker
		}
		w, recs := cl.w, cl.recs
		first := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].stamp >= w.stamp })
		born := w.recs[recs[0]].f.Stamp
		k := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].stamp >= born })
		var lastCPU float64
		tail, ri := 0, 0
		for ; k < len(c.ticks); k++ {
			tk := c.ticks[k]
			if tk.stamp >= end {
				break // rebound: samples the next container
			}
			for ri+1 < len(recs) && w.recs[recs[ri+1]].f.Stamp <= tk.stamp {
				ri++
			}
			r := &w.recs[recs[ri]]
			if r.f.State == removedState {
				break
			}
			exited := r.f.State == runtime.Exited
			if tk.stamp < b.stamp {
				if exited {
					break
				}
				continue
			}
			lastAt := w.at
			if k > first {
				lastAt = c.ticks[k-1].at
			}
			t := sim.Time(tk.at)
			v := r.f.CPUAt(t)
			if dt := tk.at - lastAt; dt > 0 && cpu != nil {
				cpu(tk.at, (v-lastCPU)/dt)
			}
			lastCPU = v
			if eval != nil && !(j.Finished && d.finished <= tk.stamp) {
				eval(tk.at, r.c.Workload().EvalAt(r.f.WorkAt(t)))
			}
			if exited {
				if tail++; tail >= PostExitSamples {
					break
				}
			}
		}
	}
}

// rateLogBytes is the dense tier's run-level retention: the rate logs,
// the tick instants and the container index.
func (c *Collector) rateLogBytes() int {
	const mapEntry = 28 // a string header and a pointer, at ~7/8 load
	total := cap(c.ticks)*int(unsafe.Sizeof(tickMark{})) + cap(c.workers)*int(unsafe.Sizeof(&workerLog{}))
	for _, w := range c.workers {
		total += int(unsafe.Sizeof(*w)) + cap(w.recs)*int(unsafe.Sizeof(foldRec{}))
	}
	for _, cl := range c.conts {
		total += mapEntry + int(unsafe.Sizeof(*cl)) + 4*cap(cl.recs)
	}
	return total
}

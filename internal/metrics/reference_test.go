package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// refCollector is the dense tier's CPU and evaluation sampler as the
// collector ran it before the rate log, transcribed: at every tick it
// reads every live container of every worker and appends the samples.
// The derived series must equal what it records, bit for bit. It reads
// the collector's job bindings (byCID, Finished), which both share, and
// the daemons only through their exported reads: a running container's
// CPU seconds and evaluation value through AppendRunningStats, an
// exited one's through CPUSeconds and its workload's EvalAt(Work()) —
// what the sampler's usage read of the daemon returned for either.
//
// Its tick is its own event, queued right behind the collector's at the
// same instant and priority; runs it is attached to must queue no
// state-changing PriorityMetric event between the two.
type refCollector struct {
	c         *Collector
	samplers  []*refSampler
	cpu, eval map[string]*Series
}

func newRefCollector(c *Collector) *refCollector {
	return &refCollector{c: c, cpu: map[string]*Series{}, eval: map[string]*Series{}}
}

// attach is AttachWorker's old dense half: a sampler for the daemon,
// and the tick on the first attach. Call it right after AttachWorker.
func (r *refCollector) attach(daemon *simdocker.Daemon) {
	r.samplers = append(r.samplers, r.newSampler(daemon))
	if len(r.samplers) == 1 {
		r.c.engine.After(r.c.period, sim.PriorityMetric, "metrics.reference", r.tick)
	}
}

func (r *refCollector) tick() {
	for _, s := range r.samplers {
		s.pass()
	}
	r.c.engine.After(r.c.period, sim.PriorityMetric, "metrics.reference", r.tick)
}

// series returns the reference's series of kind k for a job, created
// empty on first use.
func (r *refCollector) series(name string, k seriesKind) *Series {
	m := r.cpu
	if k == kindEval {
		m = r.eval
	}
	s := m[name]
	if s == nil {
		s = new(Series)
		m[name] = s
	}
	return s
}

type refSampler struct {
	r      *refCollector
	daemon *simdocker.Daemon
	live   []refSlot
	lastAt float64
	stats  map[string]flowcon.Stat // this pass's reads of the running containers
}

type refSlot struct {
	cont    *simdocker.Container
	job     *job
	lastCPU float64
	tail    int
}

func (r *refCollector) newSampler(daemon *simdocker.Daemon) *refSampler {
	s := &refSampler{r: r, daemon: daemon, lastAt: float64(r.c.engine.Now())}
	track := func(cont *simdocker.Container) {
		s.live = append(s.live, refSlot{cont: cont})
	}
	daemon.EachContainer(track)
	daemon.OnStart(track)
	return s
}

func (s *refSampler) pass() {
	s.stats = map[string]flowcon.Stat{}
	for _, st := range s.daemon.AppendRunningStats(nil) {
		s.stats[st.ID] = st
	}
	now := float64(s.r.c.engine.Now())
	dt := now - s.lastAt
	kept := s.live[:0]
	for i := range s.live {
		if s.sample(&s.live[i], now, dt) {
			kept = append(kept, s.live[i])
		}
	}
	clear(s.live[len(kept):])
	s.live = kept
	s.lastAt = now
}

// usage is the sampler's read of a container: cumulative CPU seconds and
// the evaluation value, both now.
func (s *refSampler) usage(cont *simdocker.Container) (cpu, eval float64) {
	if st, ok := s.stats[cont.ID()]; ok && cont.State() == runtime.Running {
		return st.CPUSeconds, st.Eval
	}
	w := cont.Workload()
	return cont.CPUSeconds(), w.EvalAt(w.Work())
}

func (s *refSampler) sample(sl *refSlot, now, dt float64) bool {
	cont := sl.cont
	if cont.Removed() {
		return false
	}
	exited := cont.State() == runtime.Exited
	j := sl.job
	if j == nil || j.ContainerID != cont.ID() {
		j = s.r.c.byCID[cont.ID()]
		sl.job = j
		if j == nil {
			return !exited
		}
	}
	cpuS := s.r.series(j.Name, kindCPU)
	if j.Finished && exited {
		if dt > 0 {
			cpuS.Append(now, (cont.CPUSeconds()-sl.lastCPU)/dt)
		}
		sl.lastCPU = cont.CPUSeconds()
	} else {
		cpu, eval := s.usage(cont)
		if dt > 0 {
			cpuS.Append(now, (cpu-sl.lastCPU)/dt)
		}
		sl.lastCPU = cpu
		if !j.Finished {
			s.r.series(j.Name, kindEval).Append(now, eval)
		}
	}
	if exited {
		sl.tail++
		return sl.tail < PostExitSamples
	}
	return true
}

// samples returns how many CPU samples the reference took.
func (r *refCollector) samples() int {
	n := 0
	for _, s := range r.cpu {
		n += s.Len()
	}
	return n
}

// check requires every tracked job's derived CPU and evaluation series
// to equal the reference's bit for bit, and the derived CPU summary to
// count the same samples.
func (r *refCollector) check(tb testing.TB) {
	tb.Helper()
	for name := range r.c.jobs {
		for _, k := range []seriesKind{kindCPU, kindEval} {
			got := r.c.series(name, k).Points()
			want := r.series(name, k).Points()
			if msg := diffPoints(got, want); msg != "" {
				tb.Fatalf("%s %s series: %s", name, kindNames[k], msg)
			}
		}
		if n, want := r.c.CPUSummary(name).Count(), int64(r.series(name, kindCPU).Len()); n != want {
			tb.Fatalf("%s: CPU summary counts %d samples, reference %d", name, n, want)
		}
	}
}

// diffPoints describes the first difference between two point slices,
// comparing values by their bits; "" when they are identical.
func diffPoints(got, want []Point) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		g, w := got[i], want[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) || math.Float64bits(g.V) != math.Float64bits(w.V) {
			return fmt.Sprintf("point %d is (%v, %v), reference (%v, %v)", i, g.T, g.V, w.T, w.V)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, reference %d", len(got), len(want))
	}
	return ""
}

// Package runtimetest is the reusable conformance suite for
// runtime.Runtime implementations. Each backend package runs it against
// a fresh instance of itself (simdocker under the simulation clock,
// livedock under a fake wall clock, cluster.Worker wrapping simdocker),
// so the contract in docs/RUNTIME.md is enforced by tests rather than
// prose: adding a backend costs one Harness, not a cross-layer rewrite.
// Run checks runtime.Runtime; RunMigratable checks it and the
// checkpoint/restore pair of runtime.Migratable, and only compiles for a
// backend that implements the pair.
//
// The suite only touches the backend through the interface plus the
// small control surface in Env (how to build a launchable spec and how
// to advance this backend's clock).
package runtimetest

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/runtime"
)

// Env is one fresh runtime under test, of type R, plus the
// backend-specific control surface the suite needs.
type Env[R runtime.Runtime] struct {
	// RT is the runtime under test, freshly constructed and empty.
	RT R

	// Spec builds a launchable spec for the given container name — an
	// in-process Workload, plus an Image on backends that model an image
	// store (simdocker, cluster). The workload must run for well over 10
	// clock seconds.
	Spec func(name string) runtime.LaunchSpec

	// Advance moves this backend's clock forward by the given seconds,
	// running whatever the backend has scheduled up to then (completions,
	// say). It does nothing else: every read must already report the
	// values as of the clock.
	Advance func(seconds float64)
}

// Harness builds a fresh Env per subtest.
type Harness[R runtime.Runtime] func(t *testing.T) *Env[R]

// Run exercises the full runtime.Runtime contract against the harness.
func Run[R runtime.Runtime](t *testing.T, h Harness[R]) {
	t.Run("EmptyAggregates", func(t *testing.T) { testEmptyAggregates(t, h(t)) })
	t.Run("LaunchLookupPS", func(t *testing.T) { testLaunchLookupPS(t, h(t)) })
	t.Run("NameConflict", func(t *testing.T) { testNameConflict(t, h(t)) })
	t.Run("LimitValidation", func(t *testing.T) { testLimitValidation(t, h(t)) })
	t.Run("StopSemantics", func(t *testing.T) { testStopSemantics(t, h(t)) })
	t.Run("RemoveFreesName", func(t *testing.T) { testRemoveFreesName(t, h(t)) })
	t.Run("WorkAccrues", func(t *testing.T) { testWorkAccrues(t, h(t)) })
	t.Run("ReadsAreCurrent", func(t *testing.T) { testReadsAreCurrent(t, h(t)) })
	t.Run("ExitAtFinish", func(t *testing.T) { testExitAtFinish(t, h(t)) })
	t.Run("Hooks", func(t *testing.T) { testHooks(t, h(t)) })
	t.Run("RunningStats", func(t *testing.T) { testRunningStats(t, h(t)) })
	t.Run("RunningStatsOrder", func(t *testing.T) { testRunningStatsOrder(t, h(t)) })
}

// RunMigratable exercises the runtime.Runtime contract and then the
// checkpoint/restore pair of runtime.Migratable.
func RunMigratable[R runtime.Migratable](t *testing.T, h Harness[R]) {
	Run(t, h)
	t.Run("CheckpointRestore", func(t *testing.T) { testCheckpointRestore(t, h(t)) })
}

func testEmptyAggregates[R runtime.Runtime](t *testing.T, e *Env[R]) {
	if c := e.RT.Capacity(); c <= 0 {
		t.Fatalf("Capacity() = %g, want > 0", c)
	}
	if n := e.RT.RunningCount(); n != 0 {
		t.Fatalf("RunningCount() on empty runtime = %d", n)
	}
	if used, cap := e.RT.MemoryUsed(), e.RT.MemoryCapacity(); used < 0 || cap < 0 || used > cap {
		t.Fatalf("memory aggregates used=%g cap=%g", used, cap)
	}
	if ps := e.RT.PS(true); len(ps) != 0 {
		t.Fatalf("PS(true) on empty runtime = %v", ps)
	}
	if _, err := e.RT.Lookup("nobody"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("Lookup on empty runtime = %v, want ErrNotFound", err)
	}
}

func testLaunchLookupPS[R runtime.Runtime](t *testing.T, e *Env[R]) {
	a, err := e.RT.Launch(e.Spec("conf-a"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if a.ID == "" || a.Name != "conf-a" || a.State != runtime.Running {
		t.Fatalf("launched view = %+v", a)
	}
	b, err := e.RT.Launch(e.Spec("conf-b"))
	if err != nil {
		t.Fatalf("second Launch: %v", err)
	}
	if e.RT.RunningCount() != 2 {
		t.Fatalf("RunningCount = %d, want 2", e.RT.RunningCount())
	}
	got, err := e.RT.Lookup("conf-a")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got.ID != a.ID || got.State != runtime.Running {
		t.Fatalf("Lookup view = %+v, want id %s running", got, a.ID)
	}
	ps := e.RT.PS(false)
	if len(ps) != 2 || ps[0].ID != a.ID || ps[1].ID != b.ID {
		t.Fatalf("PS(false) = %+v, want [%s %s] in creation order", ps, a.ID, b.ID)
	}
}

func testNameConflict[R runtime.Runtime](t *testing.T, e *Env[R]) {
	if _, err := e.RT.Launch(e.Spec("dup")); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := e.RT.Launch(e.Spec("dup")); !errors.Is(err, runtime.ErrNameInUse) {
		t.Fatalf("duplicate name error = %v, want ErrNameInUse", err)
	}
	if e.RT.RunningCount() != 1 {
		t.Fatalf("failed launch changed state: RunningCount = %d", e.RT.RunningCount())
	}
}

func testLimitValidation[R runtime.Runtime](t *testing.T, e *Env[R]) {
	spec := e.Spec("overlimit")
	spec.CPULimit = 7
	if _, err := e.RT.Launch(spec); !errors.Is(err, runtime.ErrBadLimit) {
		t.Fatalf("launch with limit 7 = %v, want ErrBadLimit", err)
	}
	c, err := e.RT.Launch(e.Spec("tuned"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := e.RT.SetCPULimit(c.ID, 0.25); err != nil {
		t.Fatalf("SetCPULimit: %v", err)
	}
	if got, _ := e.RT.Lookup("tuned"); got.CPULimit != 0.25 {
		t.Fatalf("limit after update = %g, want 0.25", got.CPULimit)
	}
	if err := e.RT.SetCPULimit(c.ID, 7); !errors.Is(err, runtime.ErrBadLimit) {
		t.Fatalf("SetCPULimit(7) = %v, want ErrBadLimit", err)
	}
	if err := e.RT.SetCPULimit("ghost", 0.5); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("SetCPULimit on ghost = %v, want ErrNotFound", err)
	}
}

func testStopSemantics[R runtime.Runtime](t *testing.T, e *Env[R]) {
	if err := e.RT.Stop("ghost"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("Stop(ghost) = %v, want ErrNotFound", err)
	}
	c, err := e.RT.Launch(e.Spec("victim"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := e.RT.Stop(c.ID); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	got, err := e.RT.Lookup("victim")
	if err != nil {
		t.Fatalf("Lookup after stop: %v", err)
	}
	if got.State != runtime.Exited {
		t.Fatalf("state after stop = %s, want exited", got.State)
	}
	if got.Done {
		t.Fatal("manual stop reported Done=true — a stop is not a completion")
	}
	if e.RT.RunningCount() != 0 {
		t.Fatalf("RunningCount after stop = %d", e.RT.RunningCount())
	}
	if err := e.RT.Stop(c.ID); !errors.Is(err, runtime.ErrNotRunning) {
		t.Fatalf("double stop = %v, want ErrNotRunning", err)
	}
	if ps := e.RT.PS(false); len(ps) != 0 {
		t.Fatalf("PS(false) still lists the stopped container: %+v", ps)
	}
	if ps := e.RT.PS(true); len(ps) != 1 || ps[0].ID != c.ID {
		t.Fatalf("PS(true) = %+v, want the exited husk", ps)
	}
}

func testRemoveFreesName[R runtime.Runtime](t *testing.T, e *Env[R]) {
	c, err := e.RT.Launch(e.Spec("phoenix"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := e.RT.Remove(c.ID); !errors.Is(err, runtime.ErrRunning) {
		t.Fatalf("Remove of a running container = %v, want ErrRunning", err)
	}
	if err := e.RT.Stop(c.ID); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := e.RT.Remove(c.ID); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := e.RT.Remove(c.ID); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("double remove = %v, want ErrNotFound", err)
	}
	if _, err := e.RT.Lookup("phoenix"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("Lookup after remove = %v, want ErrNotFound", err)
	}
	// The name is free again: the rebirth must succeed.
	if _, err := e.RT.Launch(e.Spec("phoenix")); err != nil {
		t.Fatalf("relaunch after remove: %v", err)
	}
}

func testWorkAccrues[R runtime.Runtime](t *testing.T, e *Env[R]) {
	c, err := e.RT.Launch(e.Spec("worker"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	e.Advance(10)
	got, err := e.RT.Lookup("worker")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	// Alone on the node with no limit the container gets the full core:
	// ~10 CPU-seconds in 10 clock seconds (backends may model small
	// overheads, hence the loose floor).
	if got.CPUSeconds < 5 || got.CPUSeconds > 10.5 {
		t.Fatalf("CPUSeconds after 10s = %g, want ~10", got.CPUSeconds)
	}
	if got.State != runtime.Running {
		t.Fatalf("state after 10s = %s, want running (workload too short for the suite)", got.State)
	}
	if got.StartedAt > c.StartedAt+1e-9 && got.ID == c.ID {
		t.Fatalf("StartedAt drifted: %g -> %g", c.StartedAt, got.StartedAt)
	}
}

// testReadsAreCurrent: with no event between them, a read after
// Advance(k) reports the CPU time accrued at the container's share over
// those k seconds, and reading changes nothing — two reads at one instant
// are equal.
func testReadsAreCurrent[R runtime.Runtime](t *testing.T, e *Env[R]) {
	if _, err := e.RT.Launch(e.Spec("reader")); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	before, err := e.RT.Lookup("reader")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	const k = 3
	e.Advance(k)
	got, err := e.RT.Lookup("reader")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if want := before.CPUSeconds + before.CPUAlloc*k; math.Abs(got.CPUSeconds-want) > 1e-9 {
		t.Fatalf("CPUSeconds %g after %gs at share %g, want %g", got.CPUSeconds, float64(k), before.CPUAlloc, want)
	}
	if got.Work <= before.Work {
		t.Fatalf("Work %g after %gs, was %g: the read is stale", got.Work, float64(k), before.Work)
	}
	again, err := e.RT.Lookup("reader")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("two Lookups at one instant differ:\n%+v\n%+v", got, again)
	}
	if ps := e.RT.PS(true); len(ps) != 1 || !reflect.DeepEqual(ps[0], got) {
		t.Fatalf("PS(true) = %+v, want [%+v]", ps, got)
	}
}

// testExitAtFinish: a lone job read long after its work ran out reads as
// it stood at its finish: exited and done, charged exactly its work, and
// stamped with the instant that work ran out at its launch share.
func testExitAtFinish[R runtime.Runtime](t *testing.T, e *Env[R]) {
	spec := e.Spec("finisher")
	work := spec.Workload.Remaining()
	c, err := e.RT.Launch(spec)
	if err != nil || c.CPUAlloc <= 0 {
		t.Fatalf("Launch = %+v, %v; want a running share", c, err)
	}
	e.Advance(3 * work / c.CPUAlloc)
	got, err := e.RT.Lookup("finisher")
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	switch ran := got.FinishedAt - got.StartedAt; {
	case err != nil || got.State != runtime.Exited || !got.Done:
		t.Fatalf("long after the finish: %+v, %v; want exited and done", got, err)
	case !near(got.CPUSeconds, got.Work):
		t.Fatalf("CPUSeconds %g for %g of work: charged past the finish", got.CPUSeconds, got.Work)
	case !near(ran, got.Work/c.CPUAlloc):
		t.Fatalf("ran %g s for %g of work at share %g, want %g", ran, got.Work, c.CPUAlloc, got.Work/c.CPUAlloc)
	}
}

func testHooks[R runtime.Runtime](t *testing.T, e *Env[R]) {
	var order []string
	e.RT.OnStart(func(c runtime.Container) { order = append(order, "start1:"+c.Name) })
	e.RT.OnStart(func(c runtime.Container) { order = append(order, "start2:"+c.Name) })
	e.RT.OnExit(func(c runtime.Container) { order = append(order, "exit1:"+c.Name) })
	e.RT.OnExit(func(c runtime.Container) { order = append(order, "exit2:"+c.Name) })

	c, err := e.RT.Launch(e.Spec("hooked"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if len(order) != 2 || order[0] != "start1:hooked" || order[1] != "start2:hooked" {
		t.Fatalf("after launch hooks = %v, want start1 then start2 (registration order)", order)
	}
	if err := e.RT.Stop(c.ID); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if len(order) != 4 || order[2] != "exit1:hooked" || order[3] != "exit2:hooked" {
		t.Fatalf("after stop hooks = %v, want exit1 then exit2 appended", order)
	}
}

func testRunningStats[R runtime.Runtime](t *testing.T, e *Env[R]) {
	a, err := e.RT.Launch(e.Spec("stat-a"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	b, err := e.RT.Launch(e.Spec("stat-b"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	e.Advance(4)
	stats := e.RT.RunningStats()
	if len(stats) != 2 {
		t.Fatalf("RunningStats returned %d entries, want 2", len(stats))
	}
	seen := map[string]bool{}
	for _, s := range stats {
		if s.ID != a.ID && s.ID != b.ID {
			t.Fatalf("stat for unknown container %q", s.ID)
		}
		if seen[s.ID] {
			t.Fatalf("container %s reported twice", s.ID)
		}
		seen[s.ID] = true
		if s.CPUSeconds <= 0 {
			t.Fatalf("stat %s has no CPU time after 4s: %+v", s.ID, s)
		}
	}
	if err := e.RT.Stop(a.ID); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if stats := e.RT.RunningStats(); len(stats) != 1 || stats[0].ID != b.ID {
		t.Fatalf("RunningStats after stop = %+v, want only %s", stats, b.ID)
	}
}

// testRunningStatsOrder pins the order RunningStats lists containers in:
// start order, which a stop keeps for the others. flowcon.Cycle matches
// each stat to its slot by walking from the previous match, which is
// O(n) only in this order.
func testRunningStatsOrder[R runtime.Runtime](t *testing.T, e *Env[R]) {
	launch := func(name string) string {
		c, err := e.RT.Launch(e.Spec(name))
		if err != nil {
			t.Fatalf("Launch %s: %v", name, err)
		}
		return c.ID
	}
	want := []string{launch("order-a"), launch("order-b"), launch("order-c")}
	check := func(when string) {
		t.Helper()
		stats := e.RT.RunningStats()
		ids := make([]string, len(stats))
		for i, s := range stats {
			ids[i] = s.ID
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("RunningStats %s lists %v, want %v", when, ids, want)
		}
	}
	check("after three launches")
	e.Advance(2)
	check("two seconds on")
	if err := e.RT.Stop(want[1]); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	want = []string{want[0], want[2]}
	check("after stopping the middle one")
	want = append(want, launch("order-d"))
	e.Advance(2)
	check("after a launch")
}

func testCheckpointRestore[R runtime.Migratable](t *testing.T, e *Env[R]) {
	c, err := e.RT.Launch(e.Spec("mover"))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	e.Advance(6)

	if _, err := e.RT.Checkpoint("ghost"); err == nil {
		t.Fatal("Checkpoint(ghost) succeeded")
	}
	cp, err := e.RT.Checkpoint(c.ID)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.Name != "mover" {
		t.Fatalf("checkpoint name = %q", cp.Name)
	}
	// The freeze removes the container from the node entirely.
	if e.RT.RunningCount() != 0 {
		t.Fatalf("RunningCount after checkpoint = %d, want 0", e.RT.RunningCount())
	}
	if _, err := e.RT.Lookup("mover"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("Lookup after checkpoint = %v, want ErrNotFound", err)
	}
	restored, err := e.RT.Restore(cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Name != "mover" || restored.State != runtime.Running {
		t.Fatalf("restored view = %+v", restored)
	}
	// Progress survived the freeze: ~6 CPU-seconds of work were done
	// before the checkpoint, so the restored workload is ahead.
	if restored.Work <= 0 {
		t.Fatalf("restored Work = %g, want the pre-freeze progress", restored.Work)
	}
	if _, err := e.RT.Restore(cp); err == nil {
		t.Fatal("double restore of one checkpoint succeeded")
	}
}

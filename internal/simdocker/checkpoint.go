package simdocker

import (
	"fmt"

	"repro/internal/runtime"
)

// Checkpoint freezes a running container: accounting is settled, the
// container exits (subscribers observe the departure, exactly as they
// would a `docker checkpoint` that stops the task), and it is removed
// from the pool so its name frees up for a later return to this node.
// The returned snapshot restores at most once (see runtime.Checkpoint),
// onto any daemon, this one included.
func (d *Daemon) Checkpoint(id string) (*runtime.Checkpoint, error) {
	c, ok := d.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.state != runtime.Running {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	d.settle()
	cp := &runtime.Checkpoint{
		Name:        c.name,
		CPULimit:    c.cpuLimit,
		MemoryBytes: c.memBytes,
		Payload:     c.workload,
		Work:        c.workload.Work(),
	}
	d.exit(c)
	// The frozen container leaves the pool entirely (unlike a plain stop,
	// which leaves an exited husk behind for `docker ps -a`): its state
	// now lives in the checkpoint, and keeping the name reserved here
	// would block a failure-recovery or drain fallback from restoring the
	// job back onto this node.
	if err := d.Remove(c.id); err != nil {
		panic(fmt.Sprintf("simdocker: removing frozen container: %v", err))
	}
	d.reallocate()
	return cp, nil
}

// Restore thaws a checkpoint into a new running container on this daemon.
// The workload resumes exactly where the freeze left it; the container
// keeps its name and soft limit but gets a fresh id (real restores create
// a new container too). A checkpoint restores at most once — the
// workload is live state, and running it in two containers would
// double-deliver its work.
func (d *Daemon) Restore(cp *runtime.Checkpoint) (*Container, error) {
	if cp == nil {
		return nil, fmt.Errorf("simdocker: restore of nil checkpoint")
	}
	if cp.Restored() {
		return nil, fmt.Errorf("simdocker: checkpoint of %s already restored", cp.Name)
	}
	c, err := d.Run(RunSpec{
		Name:     cp.Name,
		Workload: cp.Payload,
		CPULimit: cp.CPULimit,
	})
	if err != nil {
		return nil, err
	}
	cp.MarkRestored()
	return c, nil
}

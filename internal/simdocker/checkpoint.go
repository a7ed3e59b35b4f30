package simdocker

import (
	"fmt"

	"repro/internal/runtime"
)

// Checkpoint is a frozen container ready to resume on another daemon —
// the backend-neutral runtime.Checkpoint (see its doc for the field
// semantics and the restore-at-most-once contract). The alias keeps the
// historical simdocker.Checkpoint name compiling while letting a
// snapshot frozen here thaw on any conforming runtime.
type Checkpoint = runtime.Checkpoint

// Checkpoint freezes a running container: accounting is settled, the
// container exits (subscribers observe the departure, exactly as they
// would a `docker checkpoint` that stops the task), and it is removed
// from the pool so its name frees up for a later return to this node.
// The returned snapshot can be restored onto any daemon with the image
// pulled — including this one.
func (d *Daemon) Checkpoint(id string) (*Checkpoint, error) {
	c, ok := d.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.state != runtime.Running {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	d.settle()
	cp := &Checkpoint{
		ID:          c.id,
		Name:        c.name,
		Image:       c.image,
		CPULimit:    c.cpuLimit,
		MemoryBytes: c.memBytes,
		FrozenAt:    float64(d.engine.Now()),
		Payload:     c.workload,
		Work:        c.workload.Work(),
	}
	if rem := remainingWork(c.workload); cp.Work+rem > 0 {
		cp.ProgressFrac = cp.Work / (cp.Work + rem)
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
// a new container from the image too). A checkpoint restores at most
// once — the workload is live state, and running it in two containers
// would double-deliver its work.
func (d *Daemon) Restore(cp *Checkpoint) (*Container, error) {
	if cp == nil {
		return nil, fmt.Errorf("simdocker: restore of nil checkpoint")
	}
	if cp.Restored() {
		return nil, fmt.Errorf("simdocker: checkpoint of %s already restored", cp.Name)
	}
	c, err := d.Run(RunSpec{
		Image:    cp.Image,
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

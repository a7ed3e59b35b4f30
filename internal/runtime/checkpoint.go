package runtime

// Migratable is a Runtime that can also freeze a running container and
// thaw it elsewhere: the pair the simulated cluster's migration and
// self-healing drive. simdocker.RT and cluster.Worker implement it; the
// live node does not.
type Migratable interface {
	Runtime
	// Checkpoint freezes a running container into a restorable snapshot,
	// removing it from the node. Restore resumes one (exactly once).
	Checkpoint(id string) (*Checkpoint, error)
	Restore(cp *Checkpoint) (Container, error)
}

// Checkpoint is a frozen container: everything needed to resume the
// workload on another runtime. It is the backend-neutral equivalent of a
// CRIU image (`docker checkpoint create` on an experimental engine),
// reduced to what a restore and the migration cost model read: the
// container's name and limit, its resident footprint, and the work it
// had delivered.
//
// The workload itself rides along as a live reference in Payload: in
// this in-process reproduction "serialization" is a change of ownership,
// and carrying the object preserves the job's noise trajectory and
// delivered work exactly. It is also why no remote backend implements
// Migratable: a live Payload cannot cross the wire. A checkpoint must be
// restored at most once (MarkRestored enforces it).
type Checkpoint struct {
	// Name is the user-visible container name — the cluster's job label —
	// which the restored container keeps.
	Name string
	// CPULimit is the soft limit in (0,1] at freeze time.
	CPULimit float64
	// MemoryBytes is the resident footprint at freeze time — the size of
	// the memory image a real migration would copy, which the migration
	// cost model charges transfer time for.
	MemoryBytes float64
	// Work is the CPU work delivered to the workload before the freeze.
	Work float64

	// Payload is the live workload, moved to the restoring runtime.
	Payload Workload

	restored bool
}

// Restored reports whether the checkpoint has already been thawed.
func (cp *Checkpoint) Restored() bool { return cp.restored }

// MarkRestored consumes the checkpoint. Restoring runtimes call it after
// a successful thaw; a second call panics in no backend — they check
// Restored first and return their own error.
func (cp *Checkpoint) MarkRestored() { cp.restored = true }

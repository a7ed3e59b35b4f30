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
// CRIU image (`docker checkpoint create` on an experimental engine) —
// the fields mirror what a real migration would serialize (job identity,
// progress, memory image), plus the growth-efficiency history the
// cluster rebalancer attaches so the signal that justified the move
// travels with the container.
//
// The workload itself rides along as a live reference in Payload: in
// this in-process reproduction "serialization" is a change of ownership,
// and carrying the object preserves the job's noise trajectory and
// delivered work exactly. It is also why no remote backend implements
// Migratable: a live Payload cannot cross the wire. A checkpoint must be
// restored at most once (MarkRestored enforces it).
type Checkpoint struct {
	// ID is the container id the checkpoint was taken from (the restored
	// container gets a fresh id on the destination runtime).
	ID string
	// Name is the user-visible container name — the cluster's job label —
	// which the restored container keeps.
	Name string
	// Image is the container's image reference; the destination runtime
	// must have it pulled (when it models an image store).
	Image string
	// CPULimit is the soft limit in (0,1] at freeze time.
	CPULimit float64
	// MemoryBytes is the resident footprint at freeze time — the size of
	// the memory image a real migration would copy, which the migration
	// cost model charges transfer time for.
	MemoryBytes float64
	// Work is the CPU work delivered to the workload before the freeze.
	Work float64
	// ProgressFrac is Work/(Work+Remaining) at freeze time, in [0, 1];
	// NaN-free: 0 when neither quantity is knowable.
	ProgressFrac float64
	// GEHistory is the container's recent growth-efficiency trail (oldest
	// first), attached by whoever decided the migration. Runtimes do not
	// populate it — growth efficiency is a policy-layer signal.
	GEHistory []float64
	// FrozenAt is the freeze instant in seconds of simulation time on the
	// source backend.
	FrozenAt float64

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

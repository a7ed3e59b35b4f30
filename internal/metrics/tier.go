package metrics

import "fmt"

// Tier selects how much observability data a Collector computes and
// retains. The tier never changes what the simulation does: a daemon's
// reads change no state, and its observer only records (see
// simdocker.Daemon), so observing the nodes or not leaves makespans, job
// records and decisions bit-identical; only what is kept, and the
// collector's own events, differ.
type Tier int

const (
	// TierSummary is the default: per job the collector keeps the
	// lifecycle record and, for growth efficiency, a bounded compacted
	// trajectory that RecordRun appends to. It schedules no sampling
	// event and samples nothing. Collector memory is O(jobs),
	// independent of makespan. Raw series accessors (CPUSeries etc.) and
	// CPUSummary return nil in this tier.
	TierSummary Tier = iota
	// TierDense retains every Algorithm 1 run's growth, limit and list
	// as full metrics.Series, and a CPU-usage and an evaluation sample
	// per job every period — O(jobs × makespan). The samples are derived
	// on read from the workers' rate logs and the period's tick instants
	// (see Collector), bit-identical to reading every container at every
	// tick. Required for figure regeneration, CPU-trace export, and event
	// traces that include per-container limit updates (the §5.3 golden).
	TierDense
)

// String renders the tier as the run archive's tier field spells it.
func (t Tier) String() string {
	switch t {
	case TierSummary:
		return "summary"
	case TierDense:
		return "dense"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

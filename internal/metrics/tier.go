package metrics

import "fmt"

// Tier selects how much observability data a Collector computes and
// retains. The tier never changes what the simulation does: a daemon's
// reads change no state (see simdocker.Daemon), so sampling the nodes or
// not leaves makespans, job records and decisions bit-identical; only
// what is kept, and the collector's own events, differ.
type Tier int

const (
	// TierSummary is the default: per job the collector keeps the
	// lifecycle record and, for growth efficiency, a bounded compacted
	// trajectory that RecordRun appends to. It schedules no sampling
	// event and samples nothing. Collector memory is O(jobs),
	// independent of makespan. Raw series accessors (CPUSeries etc.) and
	// CPUSummary return nil in this tier.
	TierSummary Tier = iota
	// TierDense samples CPU usage and evaluation values every period and
	// retains every sample, and every Algorithm 1 run's growth, limit and
	// list, as full metrics.Series — O(jobs × makespan) memory.
	// Required for figure regeneration, CPU-trace export, and event
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

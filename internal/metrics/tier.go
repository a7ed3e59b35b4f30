package metrics

import "fmt"

// Tier selects how much raw observability data a Collector retains.
// The tier never changes what the simulation does — samplers fire at the
// same instants in both tiers, so makespans, job records and event
// ordering are tier-independent; only the retention policy differs.
type Tier int

const (
	// TierSummary is the default: per job/kind the collector keeps only
	// O(1) online summaries (Welford moments) and, for growth efficiency,
	// a bounded compacted trajectory; each sample also goes into the
	// run's quantile sketch of its kind as it arrives. Collector memory
	// is O(jobs), independent of makespan. Raw series accessors
	// (CPUSeries etc.) return nil in this tier.
	TierSummary Tier = iota
	// TierDense retains every raw sample as full metrics.Series —
	// O(jobs × makespan) memory — and keeps no second store while the run
	// samples: the per-job summaries and the run sketches are folded from
	// the raw series on first read, bit-identical to observing each sample
	// as it arrived.
	// Required for figure regeneration, CPU-trace export, and event
	// traces that include per-container limit updates (the §5.3 golden).
	TierDense
)

// String renders the tier as its CLI spelling.
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

// ParseTier parses a -trace-level flag value. The empty string means the
// default summary tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "summary":
		return TierSummary, nil
	case "dense":
		return TierDense, nil
	default:
		return 0, fmt.Errorf("metrics: unknown trace level %q (want summary or dense)", s)
	}
}

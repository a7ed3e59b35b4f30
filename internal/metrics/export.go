package metrics

import (
	"encoding/json"
	"io"
)

// ArchiveSchemaVersion is the current archive format version. Schema 2
// introduced the explicit schema/tier fields and the constant-memory
// summaries block. Schema 3 moved p50/p95/p99 out of the per-job
// summaries into the run-level quantiles block. Schema 4 dropped both the
// summaries and the quantiles blocks, since no collector computes them
// any more: an archive is the job records, the makespan and, from a
// dense-tier run, the raw series. Bump this only together with a
// migration note in README "Observability".
const ArchiveSchemaVersion = 4

// Archive is the serializable form of a collector's contents: job records
// plus, from a dense-tier run, the raw series keyed by job name. It lets
// experiment outputs be persisted and re-plotted without re-simulating.
type Archive struct {
	// Schema is the format version, ArchiveSchemaVersion.
	Schema int `json:"schema"`
	// Tier records which collection tier produced the archive
	// ("summary" or "dense").
	Tier string `json:"tier"`
	// Jobs are the lifecycle records, sorted by start time then name.
	Jobs []JobRecord `json:"jobs"`
	// Makespan is the total schedule length.
	Makespan float64 `json:"makespan"`
	// Series maps series kind ("cpu", "eval", "limit", "growth", "list")
	// to job name to observations. Dense tier only.
	Series map[string]map[string][]Point `json:"series,omitempty"`
}

// Export assembles an Archive from the collector's current state.
func (c *Collector) Export() Archive {
	a := Archive{
		Schema:   ArchiveSchemaVersion,
		Tier:     c.tier.String(),
		Jobs:     c.Jobs(),
		Makespan: c.Makespan(),
	}
	if c.tier != TierDense {
		return a
	}
	a.Series = make(map[string]map[string][]Point, len(kindNames))
	for k, kind := range kindNames {
		out := make(map[string][]Point, len(c.jobs))
		for name, j := range c.jobs {
			if s := &j.dense[k]; s.Len() > 0 {
				// Not Points: compacting first would allocate every
				// point a second time.
				out[name] = s.copyPoints()
			}
		}
		a.Series[kind] = out
	}
	return a
}

// WriteJSON writes the archive as indented JSON.
func (a Archive) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

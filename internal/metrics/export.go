package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ArchiveSchemaVersion is the current archive format version. Schema 2
// introduced the explicit schema/tier fields and the constant-memory
// summaries block; pre-v2 archives (no schema field) are rejected by
// ReadArchive so stale goldens fail loudly instead of silently decoding
// into mismatched shapes. Bump this only together with a migration note
// in README "Observability".
const ArchiveSchemaVersion = 2

// ArchiveSummary is the serialized form of one SeriesSummary: exact
// moments plus sketch quantiles (within SketchAccuracy relative error)
// and the observed time span.
type ArchiveSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	FirstT float64 `json:"first_t"`
	LastT  float64 `json:"last_t"`
}

// Archive is the serializable form of a collector's contents: job records
// plus recorded observability data, keyed by job name. It lets experiment
// outputs be persisted, diffed across runs, and re-plotted without
// re-simulating. Summaries are present in both collection tiers; raw
// Series only when the collector ran in TierDense.
type Archive struct {
	// Schema is the format version; ReadArchive rejects anything other
	// than ArchiveSchemaVersion.
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
	// Summaries maps series kind to job name to its constant-memory
	// summary. Present in both tiers.
	Summaries map[string]map[string]ArchiveSummary `json:"summaries"`
}

// summarize serializes one SeriesSummary.
func summarize(s *SeriesSummary) ArchiveSummary {
	m := s.Moments()
	first, _ := s.First()
	last, _ := s.Last()
	return ArchiveSummary{
		Count:  s.Count(),
		Mean:   m.Mean(),
		Std:    m.Std(),
		Min:    m.Min(),
		Max:    m.Max(),
		P50:    s.Quantile(0.50),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		FirstT: first.T,
		LastT:  last.T,
	}
}

// Export assembles an Archive from the collector's current state.
func (c *Collector) Export() Archive {
	a := Archive{
		Schema:    ArchiveSchemaVersion,
		Tier:      c.tier.String(),
		Jobs:      c.Jobs(),
		Makespan:  c.Makespan(),
		Summaries: make(map[string]map[string]ArchiveSummary, len(kindNames)),
	}
	for k, kind := range kindNames {
		out := make(map[string]ArchiveSummary, len(c.jobs))
		for name, j := range c.jobs {
			if s := j.summary(seriesKind(k)); s.Count() > 0 {
				out[name] = summarize(s)
			}
		}
		a.Summaries[kind] = out
	}
	if c.tier != TierDense {
		return a
	}
	a.Series = make(map[string]map[string][]Point, len(kindNames))
	for k, kind := range kindNames {
		out := make(map[string][]Point, len(c.jobs))
		for name, j := range c.jobs {
			if s := &j.dense.series[k]; s.Len() > 0 {
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

// ReadArchive parses an archive written by WriteJSON and validates it:
// the schema version must match ArchiveSchemaVersion exactly (pre-v2
// archives carry no schema field and decode as 0 — the loud failure the
// versioning exists for), the tier must parse, series timestamps must be
// non-decreasing, and every series/summary needs a job record.
func ReadArchive(r io.Reader) (Archive, error) {
	var a Archive
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Archive{}, fmt.Errorf("metrics: decoding archive: %w", err)
	}
	if a.Schema != ArchiveSchemaVersion {
		return Archive{}, fmt.Errorf(
			"metrics: archive schema %d, want %d — pre-v2 archives must be regenerated by re-running the experiment (see README \"Observability\")",
			a.Schema, ArchiveSchemaVersion)
	}
	if _, err := ParseTier(a.Tier); err != nil {
		return Archive{}, fmt.Errorf("metrics: archive tier: %w", err)
	}
	names := make(map[string]bool, len(a.Jobs))
	for _, j := range a.Jobs {
		names[j.Name] = true
	}
	for kind, m := range a.Series {
		for name, pts := range m {
			if !names[name] {
				return Archive{}, fmt.Errorf("metrics: series %s/%s has no job record", kind, name)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].T < pts[i-1].T {
					return Archive{}, fmt.Errorf("metrics: series %s/%s time went backwards at %d", kind, name, i)
				}
			}
		}
	}
	for kind, m := range a.Summaries {
		for name := range m {
			if !names[name] {
				return Archive{}, fmt.Errorf("metrics: summary %s/%s has no job record", kind, name)
			}
		}
	}
	return a, nil
}

// SeriesOf rebuilds a Series from archived points (for re-plotting).
// Only dense-tier archives carry points; for a summary-tier archive the
// result is empty.
func (a Archive) SeriesOf(kind, job string) *Series {
	s := &Series{}
	for _, p := range a.Series[kind][job] {
		s.Append(p.T, p.V)
	}
	return s
}

// JobNames lists the archived job names in record order.
func (a Archive) JobNames() []string {
	out := make([]string, len(a.Jobs))
	for i, j := range a.Jobs {
		out[i] = j.Name
	}
	return out
}

// Diff compares two archives' completion times and returns per-job deltas
// (other − a), sorted by job name — the primitive behind regression
// tracking of experiment outputs.
func (a Archive) Diff(other Archive) []CompletionDelta {
	byName := make(map[string]JobRecord, len(other.Jobs))
	for _, j := range other.Jobs {
		byName[j.Name] = j
	}
	var out []CompletionDelta
	for _, j := range a.Jobs {
		o, ok := byName[j.Name]
		if !ok || !j.Finished || !o.Finished {
			continue
		}
		out = append(out, CompletionDelta{
			Name:  j.Name,
			A:     j.CompletionTime(),
			B:     o.CompletionTime(),
			Delta: o.CompletionTime() - j.CompletionTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompletionDelta is one job's completion-time difference across archives.
type CompletionDelta struct {
	Name  string  `json:"name"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
}

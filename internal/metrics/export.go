package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// ArchiveSchemaVersion is the current archive format version. Schema 2
// introduced the explicit schema/tier fields and the constant-memory
// summaries block. Schema 3 moved p50/p95/p99 out of the per-job
// summaries into the run-level quantiles block. ReadArchive rejects every
// other version so stale goldens fail loudly instead of silently decoding
// into mismatched shapes. Bump this only together with a migration note
// in README "Observability".
const ArchiveSchemaVersion = 3

// ArchiveSummary is the serialized form of one SeriesSummary: exact
// moments and the observed time span.
type ArchiveSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	FirstT float64 `json:"first_t"`
	LastT  float64 `json:"last_t"`
}

// ArchiveQuantiles is the serialized form of one run-level sketch: how
// many samples of the kind the run saw across all jobs, and its
// quantiles, each within SketchAccuracy relative error of the exact
// order statistic over those samples.
type ArchiveQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Archive is the serializable form of a collector's contents: job records
// plus recorded observability data, keyed by job name. It lets experiment
// outputs be persisted, diffed across runs, and re-plotted without
// re-simulating. Summaries and quantiles are present in both collection
// tiers; raw Series only when the collector ran in TierDense.
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
	// Quantiles maps series kind to the run sketch's quantiles over every
	// job's samples of that kind; a kind with no samples is absent.
	// Present in both tiers, and equal between them.
	Quantiles map[string]ArchiveQuantiles `json:"quantiles"`
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
		FirstT: first.T,
		LastT:  last.T,
	}
}

// Export assembles an Archive from the collector's current state. In
// TierDense it first folds every job's pending points, so the run
// quantiles cover every sample.
func (c *Collector) Export() Archive {
	a := Archive{
		Schema:    ArchiveSchemaVersion,
		Tier:      c.tier.String(),
		Jobs:      c.Jobs(),
		Makespan:  c.Makespan(),
		Summaries: make(map[string]map[string]ArchiveSummary, len(kindNames)),
		Quantiles: make(map[string]ArchiveQuantiles, len(kindNames)),
	}
	for k, kind := range kindNames {
		out := make(map[string]ArchiveSummary, len(c.jobs))
		for name, j := range c.jobs {
			if s := c.fold(j, seriesKind(k)); s.Count() > 0 {
				out[name] = summarize(s)
			}
		}
		a.Summaries[kind] = out
		if sk := &c.sketches[k]; sk.Count() > 0 {
			a.Quantiles[kind] = ArchiveQuantiles{
				Count: sk.Count(),
				P50:   sk.Quantile(0.50),
				P95:   sk.Quantile(0.95),
				P99:   sk.Quantile(0.99),
			}
		}
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
// versioning exists for), the tier must parse, every series, summary and
// quantiles key must name a known kind, series timestamps must be
// non-decreasing, every series/summary needs a job record, and each
// quantiles entry needs a positive count and finite, ordered quantiles.
// An empty series block reads as none, the way WriteJSON writes it.
func ReadArchive(r io.Reader) (Archive, error) {
	var a Archive
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Archive{}, fmt.Errorf("metrics: decoding archive: %w", err)
	}
	if a.Schema != ArchiveSchemaVersion {
		return Archive{}, fmt.Errorf(
			"metrics: archive schema %d, want %d — schema 3 moved p50/p95/p99 from per-job summaries to the run-level quantiles block; regenerate older archives by re-running the experiment (see README \"Observability\")",
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
		if !slices.Contains(kindNames[:], kind) {
			return Archive{}, fmt.Errorf("metrics: series kind %q unknown", kind)
		}
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
	if len(a.Series) == 0 {
		a.Series = nil
	}
	for kind, m := range a.Summaries {
		if !slices.Contains(kindNames[:], kind) {
			return Archive{}, fmt.Errorf("metrics: summary kind %q unknown", kind)
		}
		for name := range m {
			if !names[name] {
				return Archive{}, fmt.Errorf("metrics: summary %s/%s has no job record", kind, name)
			}
		}
	}
	for kind, q := range a.Quantiles {
		if !slices.Contains(kindNames[:], kind) {
			return Archive{}, fmt.Errorf("metrics: quantiles kind %q unknown", kind)
		}
		if q.Count <= 0 {
			return Archive{}, fmt.Errorf("metrics: quantiles %s: count %d not positive", kind, q.Count)
		}
		for _, v := range []float64{q.P50, q.P95, q.P99} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Archive{}, fmt.Errorf("metrics: quantiles %s: %g not finite", kind, v)
			}
		}
		if q.P50 > q.P95 || q.P95 > q.P99 {
			return Archive{}, fmt.Errorf("metrics: quantiles %s: p50 %g, p95 %g, p99 %g out of order", kind, q.P50, q.P95, q.P99)
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
